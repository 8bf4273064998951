"""Tests for the exact-arithmetic cohomology oracle."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from tdual import cli, oracle
from tdual.cells import CellObject, cell_contains, hom_from_cells, hom_labels, offset_window
from tdual.oracle import (
    RegionPair,
    SimplicialPair,
    _faces,
    counts_by_dim,
    matrix_rank_exact,
    oracle_hom_dim,
    region_pair,
    relative_cohomology,
    shrink_and_triangulate,
)

from test_cells import hom_basis


# --- grid faces and regions -------------------------------------------------

# The n <= 2 grid written out kind by kind, with a box scan over base points:
# an enumeration independent of `oracle._faces`.  Two-dimensional cells are
# unit squares split along their anti-diagonals.
_KINDS = {1: ("V", "E"), 2: ("V", "EH", "EV", "ED", "TL", "TU")}


def _cell_vertices(cell):
    kind, m = cell
    if kind == "V":
        return (m,)
    if kind == "E":  # n = 1 unit interval
        return (m, (m[0] + 1,))
    x, y = m
    return {
        "EH": ((x, y), (x + 1, y)),
        "EV": ((x, y), (x, y + 1)),
        "ED": ((x + 1, y), (x, y + 1)),  # anti-diagonal of the unit square at m
        "TL": ((x, y), (x + 1, y), (x, y + 1)),  # below the anti-diagonal
        "TU": ((x + 1, y), (x + 1, y + 1), (x, y + 1)),  # above it
    }[kind]


def _grid_cells(n, lo, hi):
    """All grid cells whose base point lies in the box [lo-1, hi] per axis."""
    ranges = [range(lo[i] - 1, hi[i] + 1) for i in range(n)]
    for base in itertools.product(*ranges):
        for kind in _KINDS[n]:
            yield (kind, base)


def _vertex_sets(faces):
    return {frozenset(face) for face in faces}


def _barycenter(verts):
    return tuple(Fraction(sum(coords), len(verts)) for coords in zip(*verts))


def _in_open_cell(verts, cell):
    g = _barycenter(verts)
    b = cell.offset
    return all(gl < bl for gl, bl in zip(g, b)) and sum(g) - sum(b) > cell.level


def test_grid_cell_geometry_n2():
    assert _cell_vertices(("TU", (-1, -1))) == ((0, -1), (0, 0), (-1, 0))
    assert _cell_vertices(("ED", (-1, -1))) == ((0, -1), (-1, 0))
    assert [len(_cell_vertices((kind, (0, 0)))) - 1 for kind in ("V", "EH", "TL")] == [0, 1, 2]
    # the same two faces in chain order, minimal vertex first
    faces = set(_faces(2, -1, (0, 0)))
    assert ((-1, 0), (0, -1), (0, 0)) in faces
    assert ((-1, 0), (0, -1)) in faces


def test_faces_of_open_cell_match_kind_table():
    """`_faces` restricted to each open cell gives the kind table's faces."""
    for n in (1, 2):
        for cell in _every_cell(n):
            lo = [b + cell.level for b in cell.offset]
            expected = _vertex_sets(
                verts
                for verts in map(_cell_vertices, _grid_cells(n, lo, cell.offset))
                if _in_open_cell(verts, cell)
            )
            got = [face for face in _faces(n, cell.level, cell.offset) if _in_open_cell(face, cell)]
            assert len(got) == len(expected), cell  # no face is yielded twice
            assert _vertex_sets(got) == expected, cell


def test_unit_cell_is_single_triangle():
    # the smallest cell is exactly one upper grid triangle
    pair = region_pair(CellObject(-1, (0, 0)), CellObject(-1, (0, 0)))
    assert pair.X == {((-1, 0), (0, -1), (0, 0))}
    assert not pair.A


def test_region_pair_half_open_arc_n1():
    # closure of the short arc inside the long arc: half-open interval
    pair = region_pair(CellObject(-1, (0,)), CellObject(-2, (0,)))
    assert pair.X == {((-1,),), ((-1,), (0,))}
    assert pair.A == {((-1,),)}


def test_region_pair_wraparound_interior_point_n1():
    # the full-length cell's boundary point lands inside the shifted copy
    pair = region_pair(CellObject(-2, (0,)), CellObject(-2, (-1,)))
    assert pair.X == {((-3,), (-2,)), ((-2,),), ((-2,), (-1,))}
    assert pair.A == {((-2,),)}


def test_region_pair_identity_n1():
    pair = region_pair(CellObject(-2, (0,)), CellObject(-2, (0,)))
    assert counts_by_dim(1, pair.X) == (1, 2)
    assert not pair.A


def test_region_pair_disjoint_n1():
    pair = region_pair(CellObject(-1, (0,)), CellObject(-1, (-1,)))
    assert not pair.X
    assert not pair.A


def test_region_pair_n2_triangle_edge_case():
    # small outer inside medium inner: closed triangle minus two sides
    pair = region_pair(CellObject(-1, (0, 0)), CellObject(-2, (0, 0)))
    assert pair.X == {((-1, 0), (0, -1), (0, 0)), ((-1, 0), (0, -1))}
    assert pair.A == {((-1, 0), (0, -1))}


def test_region_pair_n2_disjoint():
    pair = region_pair(CellObject(-2, (0, 0)), CellObject(-1, (-1, -1)))
    assert not pair.X


def test_region_pair_counts_full_cell_n2():
    # the big cell meets the whole of any inner region it is paired with
    pair = region_pair(CellObject(-3, (0, 0)), CellObject(-3, (0, 0)))
    # area of the inner region is 9/2, so it holds 9 triangles; with one
    # interior vertex and 9 open edges that gives Euler characteristic 1
    assert counts_by_dim(2, pair.X) == (1, 9, 9)
    assert len(pair.X) == 19


@pytest.mark.parametrize("n", [3, 4])
def test_region_pair_identity_any_n(n):
    """A cell against itself, at every level k and two offsets.

    X is the whole open cell and A is empty.  The open simplex of side -k
    holds (-k)^n top faces, each of volume 1/n!, and as a union of open
    faces its Euler characteristic is (-1)^n.
    """
    for k in range(-n - 1, 0):
        for offset in ((0,) * n, tuple(-l for l in range(n))):
            cell = CellObject(k, offset)
            pair = region_pair(cell, cell)
            counts = counts_by_dim(n, pair.X)
            assert not pair.A, (k, offset)
            assert counts[n] == (-k) ** n, (k, offset)
            assert sum((-1) ** d * c for d, c in enumerate(counts)) == (-1) ** n, (k, offset)


def _reference_region_pair(outer, inner):
    """X and A by brute force over the kind table and the outer cell's translates.

    Every inner grid cell's barycenter is tested with exact inequalities
    against the closed and the open outer cell translated by (n+1) m,
    m in {-1, 0, 1}^n; X and A are the unions over m, as vertex sets.
    """
    n = outer.n
    period = n + 1
    lo = [bl + inner.level for bl in inner.offset]
    x_cells, a_cells = set(), set()
    for verts in map(_cell_vertices, _grid_cells(n, lo, inner.offset)):
        if not _in_open_cell(verts, inner):
            continue
        g = _barycenter(verts)
        for m in itertools.product((-1, 0, 1), repeat=n):
            a = [al + period * ml for al, ml in zip(outer.offset, m)]
            total = sum(g) - sum(a)
            if all(gl <= al for gl, al in zip(g, a)) and total >= outer.level:
                x_cells.add(frozenset(verts))
                if not (all(gl < al for gl, al in zip(g, a)) and total > outer.level):
                    a_cells.add(frozenset(verts))
    return x_cells, a_cells


def _every_cell(n, offsets=None):
    for level in range(-n - 1, 0):
        for offset in offsets or itertools.product(range(-n, 1), repeat=n):
            yield CellObject(level, offset)


def test_region_pair_matches_translate_union():
    """The canonical-lift rule agrees with the union over translates.

    Every pair at n = 1, and at n = 2 every outer cell against the inner
    cells at offset (-1, -2), so that the outer offset is not only 0 and
    the wrap-around cases are covered.
    """
    pairs = [(o, i) for o in _every_cell(1) for i in _every_cell(1)]
    pairs += [(o, i) for o in _every_cell(2) for i in _every_cell(2, [(-1, -2)])]
    assert len(pairs) == 16 + 81
    nonempty_a = 0
    for outer, inner in pairs:
        pair = region_pair(outer, inner)
        x_cells, a_cells = _reference_region_pair(outer, inner)
        assert _vertex_sets(pair.X) == x_cells, (outer, inner)
        assert _vertex_sets(pair.A) == a_cells, (outer, inner)
        nonempty_a += bool(a_cells)
    assert nonempty_a > 10


def _reference_region_pair_walk(outer, inner):
    """`region_pair` as a walk over the closed inner cell's lattice points and chains.

    Every candidate face of (level, b) is tested for the open inner cell and
    then against the outer cell, each through its vertex sum k m + s.
    """
    n = outer.n
    b, a = inner.offset, outer.offset
    floor = inner.level + sum(b)
    chains = [(steps, len(steps), tuple(map(sum, zip(*steps)))) for steps in oracle._chains(n)]
    x_faces, a_faces = set(), set()
    for m in oracle._lattice_points(inner.level, b):
        for steps, k, s in chains:
            kg = [k * ml + sl for ml, sl in zip(m, s)]
            if sum(kg) <= k * floor or any(kg_l >= k * bl for kg_l, bl in zip(kg, b)):
                continue
            depth = [(k * al - kg_l) % (k * (n + 1)) for al, kg_l in zip(a, kg)]
            slack = -sum(depth) - k * outer.level
            if slack >= 0:
                face = tuple(tuple(ml + sl for ml, sl in zip(m, step)) for step in steps)
                x_faces.add(face)
                if slack == 0 or 0 in depth:
                    a_faces.add(face)
    return RegionPair(frozenset(x_faces), frozenset(a_faces), inner)


def _assert_translated_pairs_match_walk(pairs):
    """Equal pairs: the same X, A and inner cell."""
    for outer, inner in pairs:
        assert region_pair(outer, inner) == _reference_region_pair_walk(outer, inner), (outer, inner)


def test_region_pair_matches_candidate_walk_n1_n2():
    """Translated faces of the offset-0 listing give the walk's pair, at every outer offset."""
    pairs = [(o, i) for n in (1, 2) for o in _every_cell(n) for i in _every_cell(n)]
    assert len(pairs) == 16 + 729
    _assert_translated_pairs_match_walk(pairs)


def test_region_pair_matches_candidate_walk_n3():
    """All 1,024 pairs of the n = 3 oracle loop (outer offset 0), and a fixed
    sample of pairs whose outer cell sits at another offset."""
    outer_at_zero = [(o, i) for o in _every_cell(3, [(0, 0, 0)]) for i in _every_cell(3)]
    assert len(outer_at_zero) == 1024
    _assert_translated_pairs_match_walk(outer_at_zero)
    cells = list(_every_cell(3))
    rng = random.Random(16)
    sample = [(rng.choice(cells), rng.choice(cells)) for _ in range(300)]
    assert sum(o.offset != (0, 0, 0) for o, _ in sample) > 250
    _assert_translated_pairs_match_walk(sample)


def test_region_pair_validation():
    with pytest.raises(ValueError):
        region_pair(CellObject(-1, (0,)), CellObject(-1, (0, 0)))
    # the regions exist for n = 3; only the planar shrink model refuses them
    pair = region_pair(CellObject(-1, (0, 0, 0)), CellObject(-1, (0, 0, 0)))
    with pytest.raises(ValueError):
        shrink_and_triangulate(pair, Fraction(1, 8))


# --- shrinking and triangulating ---------------------------------------------

def _reference_clip(points, cons):
    """The shrink step's clipper in exact rationals: Sutherland-Hodgman on
    `Fraction` points against {x : coeffs . x <= rhs}, one halfspace at a time."""
    poly = points
    for coeffs, rhs in cons:
        out = []
        for cur, nxt in zip(poly, poly[1:] + poly[:1]):
            fc, fn = (sum(c * x for c, x in zip(coeffs, pt)) for pt in (cur, nxt))
            if fc <= rhs:
                out.append(cur)
            if (fc <= rhs) != (fn <= rhs):
                t = (rhs - fc) / (fn - fc)
                out.append(tuple(a + t * (b - a) for a, b in zip(cur, nxt)))
        poly = [pt for k, pt in enumerate(out) if k == 0 or pt != out[k - 1]]
        if len(poly) > 1 and poly[0] == poly[-1]:
            poly.pop()
    return poly


def _reference_shrink(pair, eps):
    """The ε-shrink in `Fraction`s, fanned from the smallest vertex by 2D cross
    products: every X face clipped and fanned, then every A face again.

    Returns (simplices, sub), each simplex as the set of its points.
    """
    inner_constraints = oracle._simplex_constraints(pair.inner.level, pair.inner.offset)
    shrink = [(coeffs, rhs - Fraction(eps)) for coeffs, rhs in inner_constraints]

    def pieces(face):
        poly = _reference_clip([tuple(map(Fraction, v)) for v in face], shrink)
        if len(poly) < 3:
            return [tuple(poly)] if poly else []
        anchor = poly.index(min(poly))
        a, *rest = poly[anchor:] + poly[:anchor]
        return [(a, b, c) for b, c in zip(rest, rest[1:])
                if (b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0])]

    simplices, sub = set(), set()
    for faces, into in ((pair.X, simplices), (pair.A, sub)):
        for face in faces:
            for piece in pieces(face):
                for k in range(1, len(piece) + 1):
                    into.update(map(frozenset, itertools.combinations(piece, k)))
    return frozenset(simplices | sub), frozenset(sub)


def _geometric(sp, corner):
    """(simplices, sub) of a shrunk pair as `_reference_shrink` gives them: each
    simplex as the set of its `Fraction` points, with the inner corner added back."""

    def points(simplex):
        return frozenset(tuple(Fraction(x, pt[-1]) + t for x, t in zip(pt[:-1], corner)) for pt in simplex)

    return frozenset(map(points, sp.simplices)), frozenset(map(points, sp.sub))


def test_clip_polygon_points_and_segments():
    """The polygon clipper on 1- and 2-point lists, with exact output.

    A point (X_1, X_2, W) stands for X / W, and a halfspace (coeffs, rhs) is
    coeffs . x <= rhs, so x <= 1/2 is ((2, 0), 1).  The `Fraction` reference
    clipper gives the same points on every case.
    """
    p, q = (0, 0, 1), (2, 1, 1)
    cases = [
        # a point is kept or dropped whole
        ([p], [((1, 0), 0)], [p]),
        ([p], [((1, 0), -1)], []),
        # fully inside
        ([p, q], [((1, 0), 2), ((0, 1), 1)], [p, q]),
        # cut at the q end, at (1, 1/2)
        ([p, q], [((1, 0), 1)], [p, (2, 1, 2)]),
        # cut at the p end by x >= 1/2 and y >= 1/3, at (2/3, 1/3); the order stays p -> q
        ([p, q], [((-2, 0), -1), ((0, -3), -1)], [(2, 1, 3), q]),
        # touching the boundary leaves one point
        ([p, q], [((1, 0), 0)], [p]),
        ([p, q], [((-1, -1), -3)], [q]),
        # fully outside, by y <= -1/4
        ([p, q], [((1, 0), 2), ((0, 4), -1)], []),
    ]

    def rational(pts):
        return [tuple(Fraction(x, pt[-1]) for x in pt[:-1]) for pt in pts]

    for points, cons, expected in cases:
        assert oracle._clip_polygon(points, cons) == expected, (points, cons)
        assert _reference_clip(rational(points), cons) == rational(expected), (points, cons)


def test_fan_starts_at_smallest_vertex_and_skips_collinear_triangles():
    """Grid faces never give three collinear points; a hand-made polygon does."""
    polygon = ((1, 0), (2, 0), (0, 1), (0, 0))  # (1, 0) lies on the edge from (0, 0) to (2, 0)
    assert oracle._piece_simplices(polygon, []) == [((0, 0, 1), (2, 0, 1), (0, 1, 1))]


def _cli_pairs():
    """Every (outer, inner) pair the `oracle` command builds: 8 at n = 1, 81 at n = 2."""
    return [
        (CellObject(i, (0,) * n), CellObject(j, offset))
        for n in (1, 2)
        for i in range(-n - 1, 0)
        for j in range(-n - 1, 0)
        for offset in offset_window(n)
    ]


def _pair_profile(outer, inner):
    """The relative Betti profile of (closure(outer) ∩ inner, boundary(outer) ∩ inner) at epsilon 1/8."""
    return relative_cohomology(shrink_and_triangulate(region_pair(outer, inner), Fraction(1, 8)))


@pytest.mark.parametrize("eps", [Fraction(1, 8), Fraction(1, 16), Fraction(3, 13), Fraction(1, 1000)])
def test_shrink_matches_fraction_reference(eps):
    """The integer shrink gives the `Fraction` model's complex on every CLI pair."""
    pairs = _cli_pairs()
    assert len(pairs) == 8 + 81
    for outer, inner in pairs:
        pair = region_pair(outer, inner)
        got = shrink_and_triangulate(pair, eps)
        assert _geometric(got, inner.offset) == _reference_shrink(pair, eps), (outer, inner)


def test_shrink_clips_each_x_cell_once(monkeypatch):
    """One clip per face relative to the inner corner, per level and margin,
    across all pairs, with the reference model's exact output.

    Every pair at n = 1, and at n = 2 every outer cell against the inner
    cells at offset (-1, -2).  The pieces are memoised, so the memo is
    cleared first and `_piece_simplices` sees each relative face once.
    """
    pairs = [(o, i) for o in _every_cell(1) for i in _every_cell(1)]
    pairs += [(o, i) for o in _every_cell(2) for i in _every_cell(2, [(-1, -2)])]
    calls = []
    piece_simplices = oracle._piece_simplices
    monkeypatch.setattr(
        oracle, "_piece_simplices", lambda face, shrink: calls.append((face, shrink)) or piece_simplices(face, shrink)
    )
    oracle._relative_closure.cache_clear()
    relative_faces = set()
    nonempty_a = 0
    for outer, inner in pairs:
        pair = region_pair(outer, inner)
        nonempty_a += bool(pair.A)
        for eps in (Fraction(1, 8), Fraction(1, 16)):
            got = shrink_and_triangulate(pair, eps)
            assert _geometric(got, inner.offset) == _reference_shrink(pair, eps), (outer, inner)
            relative_faces.update(
                (inner.level, eps, tuple(tuple(x - b for x, b in zip(v, inner.offset)) for v in face))
                for face in pair.X
            )
    assert len(calls) == len(set(calls)) == len(relative_faces)
    assert {face for face, _ in calls} == {face for _, _, face in relative_faces}
    assert nonempty_a > 10


@pytest.mark.parametrize("n", [1, 2])
def test_shrink_depends_on_levels_and_offset_difference_only(n):
    """Pairs with equal levels and equal (a - b) mod (n + 1), for outer offset a
    and inner offset b, give equal shrunk pairs at every pair of offsets of
    `_every_cell`: the invariant that lets `_relative_closure` be memoised on
    each face taken relative to the inner corner."""
    classes = {}
    for outer in _every_cell(n):
        for inner in _every_cell(n):
            rel = tuple((a - b) % (n + 1) for a, b in zip(outer.offset, inner.offset))
            got = shrink_and_triangulate(region_pair(outer, inner), Fraction(1, 8))
            classes.setdefault((outer.level, inner.level, rel), []).append(got)
    assert len(classes) == (n + 1) ** (n + 2)
    assert {len(results) for results in classes.values()} == {(n + 1) ** n}
    assert [key for key, results in classes.items() if len(set(results)) > 1] == []


def test_profile_is_one_iff_cells_contain():
    """Per pair: the Betti profile is (1, 0, ..., 0) iff the outer cell contains
    the inner one, and zero otherwise; a containment's morphism lies in the
    hom basis.  Ties the cohomology to `cells.cell_contains`, pair by pair.

    It also checks the facet split of `oracle`'s module docstring: a
    containment has X the whole inner cell and A empty; otherwise X is empty
    or A is not."""
    contained = 0
    for outer, inner in _cli_pairs():
        n = outer.n
        pair = region_pair(outer, inner)
        betti = _pair_profile(outer, inner)
        if cell_contains(outer, inner):
            contained += 1
            assert betti == (1,) + (0,) * n, (outer, inner)
            assert not pair.A and len(pair.X) == len(oracle._open_faces(n, inner.level)), (outer, inner)
            label = hom_from_cells(outer, inner)
            assert list(label) in hom_labels(inner.level - outer.level, n).tolist(), (outer, inner)
        else:
            assert betti == (0,) * (n + 1), (outer, inner)
            assert not pair.X or pair.A, (outer, inner)
    assert contained == 19


def _validate(sp):
    """Check that `sp` is a simplicial pair: sorted simplices, both parts closed
    under faces, and the subcomplex inside the complex."""
    for group, name in ((sp.simplices, "complex"), (sp.sub, "subcomplex")):
        for s in group:
            if list(s) != sorted(set(s)):
                raise AssertionError(f"malformed simplex {s} in {name}")
            for k in range(1, len(s)):
                for face in itertools.combinations(s, k):
                    if face not in group:
                        raise AssertionError(f"{name} not closed under faces at {s}")
    if not sp.sub <= sp.simplices:
        raise AssertionError("subcomplex not contained in complex")


def test_shrink_identity_n1_is_path_graph():
    pair = region_pair(CellObject(-2, (0,)), CellObject(-2, (0,)))
    sp = shrink_and_triangulate(pair, Fraction(1, 8))
    _validate(sp)
    assert counts_by_dim(1, sp.simplices) == (3, 2)
    assert sp.sub == frozenset()
    assert relative_cohomology(sp) == (1, 0)


def test_shrink_identity_n2_is_triangle():
    pair = region_pair(CellObject(-1, (0, 0)), CellObject(-1, (0, 0)))
    sp = shrink_and_triangulate(pair, Fraction(1, 8))
    _validate(sp)
    assert counts_by_dim(2, sp.simplices) == (3, 3, 1)
    assert relative_cohomology(sp) == (1, 0, 0)


def test_shrink_vertices_are_exact_rationals():
    pair = region_pair(CellObject(-1, (0, 0)), CellObject(-1, (0, 0)))
    sp = shrink_and_triangulate(pair, Fraction(1, 8))
    eps = Fraction(1, 8)
    expected = {
        (-eps, -eps),
        (-eps, -1 + 2 * eps),
        (-1 + 2 * eps, -eps),
    }
    assert {pt for simplex in _geometric(sp, (0, 0))[0] if len(simplex) == 1 for pt in simplex} == expected


def test_shrink_epsilon_bounds():
    pair = region_pair(CellObject(-1, (0,)), CellObject(-1, (0,)))
    with pytest.raises(ValueError):
        shrink_and_triangulate(pair, Fraction(1, 4))
    with pytest.raises(ValueError):
        shrink_and_triangulate(pair, 0)
    with pytest.raises(ValueError):
        shrink_and_triangulate(pair, Fraction(-1, 8))


def test_shrink_accepts_string_epsilon():
    pair = region_pair(CellObject(-1, (0,)), CellObject(-1, (0,)))
    assert relative_cohomology(shrink_and_triangulate(pair, "1/10")) == (1, 0)


def test_shrink_deterministic():
    pair = region_pair(CellObject(-3, (0, 0)), CellObject(-2, (0, -1)))
    a = shrink_and_triangulate(pair, Fraction(1, 8))
    b = shrink_and_triangulate(pair, Fraction(1, 8))
    assert a == b


def test_simplicial_pair_validate_catches_missing_face():
    broken = SimplicialPair(
        n=1,
        simplices=frozenset({(0, 1)}),
        sub=frozenset(),
    )
    with pytest.raises(AssertionError):
        _validate(broken)


def test_simplicial_pair_validate_catches_stray_sub():
    broken = SimplicialPair(
        n=1,
        simplices=frozenset({(0,)}),
        sub=frozenset({(1,)}),
    )
    with pytest.raises(AssertionError):
        _validate(broken)


# --- exact rank --------------------------------------------------------------

def _reference_rank(rows):
    """Rank of an integer matrix by dense fraction-free (Bareiss) elimination."""
    m = [row[:] for row in rows if any(row)]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(nc):
        pivot_row = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nr:
            break
    return rank


def test_matrix_rank_exact_cases():
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([[0, 0], [0, 0]]) == 0
    assert matrix_rank_exact([[1, 1], [1, 1]]) == 1
    assert matrix_rank_exact([[2, 0], [0, 3]]) == 2
    assert matrix_rank_exact([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    # wide and tall shapes
    assert matrix_rank_exact([[1, 2, 3]]) == 1
    assert matrix_rank_exact([[1], [2], [3]]) == 1
    # a case that overflows naive floating-point elimination is still exact
    big = [[10**20, 1], [1, 10**20]]
    assert matrix_rank_exact(big) == 2


def test_matrix_rank_exact_agrees_with_numpy_on_random_small():
    import numpy as np

    rng = np.random.default_rng(13)
    for _ in range(30):
        mat = rng.integers(-3, 4, size=(5, 7))
        assert matrix_rank_exact(mat.tolist()) == np.linalg.matrix_rank(mat)


def test_matrix_rank_exact_matches_reference_on_coboundaries(monkeypatch):
    """The sparse rank equals the dense Bareiss rank on every coboundary matrix
    of every CLI pair at n <= 2, at four margins."""
    seen = []
    rank = oracle.matrix_rank_exact
    monkeypatch.setattr(oracle, "matrix_rank_exact", lambda rows: seen.append(rows) or rank(rows))
    for outer, inner in _cli_pairs():
        pair = region_pair(outer, inner)
        for eps in (Fraction(1, 8), Fraction(1, 16), Fraction(3, 13), Fraction(1, 1000)):
            relative_cohomology(shrink_and_triangulate(pair, eps))
    assert len(seen) == 424
    for rows in seen:
        assert rank(rows) == _reference_rank(rows), rows


def test_matrix_rank_exact_matches_reference_on_random_integers():
    """Entries in [-5, 5], so rows have common factors and reductions grow
    entries; products of thin factors make many matrices rank-deficient."""
    rng = random.Random(16)
    deficient = 0
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        if rng.random() < 0.5:
            rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        else:
            inner = rng.randint(1, 3)
            left = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(nr)]
            right = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(inner)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
        expected = _reference_rank(rows)
        deficient += expected < min(nr, nc)
        assert matrix_rank_exact(rows) == expected, rows
    assert deficient > 50
    assert matrix_rank_exact([[2, 4, 6], [3, 6, 9], [4, 2, 0]]) == 2


# --- relative cohomology -----------------------------------------------------

def test_relative_cohomology_point_and_interval():
    point = SimplicialPair(
        n=1, simplices=frozenset({(0,)}), sub=frozenset()
    )
    assert relative_cohomology(point) == (1, 0)
    interval = SimplicialPair(
        n=1,
        simplices=frozenset({(0,), (1,), (0, 1)}),
        sub=frozenset({(0,), (1,)}),
    )
    # interval rel endpoints: one unit of first cohomology
    assert relative_cohomology(interval) == (0, 1)


def test_relative_cohomology_mod_full_sub_is_zero():
    full = SimplicialPair(
        n=1,
        simplices=frozenset({(0,), (1,), (0, 1)}),
        sub=frozenset({(0,), (1,), (0, 1)}),
    )
    assert relative_cohomology(full) == (0, 0)


def test_pair_cohomology_contained_cases():
    # half-open arc rel its closed end is contractible relative to nothing
    assert _pair_profile(CellObject(-1, (0,)), CellObject(-2, (0,))) == (0, 0)
    # interval rel an interior point likewise vanishes
    assert _pair_profile(CellObject(-2, (0,)), CellObject(-2, (-1,))) == (0, 0)
    # triangle rel one open side vanishes
    assert _pair_profile(CellObject(-1, (0, 0)), CellObject(-2, (0, 0))) == (0, 0, 0)


def test_pair_cohomology_identity_cases():
    assert _pair_profile(CellObject(-1, (0,)), CellObject(-1, (0,))) == (1, 0)
    assert _pair_profile(CellObject(-3, (0, 0)), CellObject(-3, (0, 0))) == (1, 0, 0)


# --- the oracle against the quiver calculus ----------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_oracle_matches_binomial_dimensions(n):
    for i in range(-n - 1, 0):
        for j in range(-n - 1, 0):
            betti = oracle_hom_dim(i, j, n)
            expected = len(hom_basis(i, j, n))
            assert betti[0] == expected, (i, j, betti)
            assert all(v == 0 for v in betti[1:]), (i, j, betti)


def test_oracle_epsilon_stability_spot():
    for i, j in [(-3, -1), (-2, -2), (-3, -2)]:
        a = oracle_hom_dim(i, j, 2, Fraction(1, 8))
        b = oracle_hom_dim(i, j, 2, Fraction(1, 16))
        assert a == b


def test_oracle_euler_characteristic_consistency():
    """Alternating cell counts equal alternating Betti sums, pair by pair."""
    outer = CellObject(-3, (0, 0))
    for offset in offset_window(2):
        inner = CellObject(-2, offset)
        pair = region_pair(outer, inner)
        sp = shrink_and_triangulate(pair, Fraction(1, 8))
        counts = counts_by_dim(2, sp.simplices - sp.sub)
        betti = relative_cohomology(sp)
        chi_cells = sum((-1) ** p * c for p, c in enumerate(counts))
        chi_betti = sum((-1) ** p * b for p, b in enumerate(betti))
        assert chi_cells == chi_betti


def test_oracle_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        oracle_hom_dim(-1, -1, 3)
    with pytest.raises(ValueError):
        list(oracle.cell_pair_profiles(-1, -1, 3, (Fraction(1, 8),)))


def test_hom_dim_detail_entries():
    detail = cli.run_oracle(cli.RunConfig(command="oracle", n=1))["detail"]
    entries = [e for e in detail if (e["i"], e["j"]) == (-2, -1)]
    assert len(entries) == 2
    total = sum(e["betti"][0] for e in entries)
    assert total == 2
    for e in entries:
        assert set(e) == {"i", "j", "b", "betti", "cells"}
        assert set(e["cells"]) == {"X", "A"}

