"""Exact rational cohomology oracle for pairs of torus cells.

For two cells on the covering torus (R/(n+1)Z)^n this module computes the
relative rational cohomology of the pair

    X = closure(outer) ∩ inner,      A = boundary(outer) ∩ inner,

by purely combinatorial means, independent of the quiver calculus in
:mod:`tdual.cells`:

1.  Both cells are unions of open faces of one triangulation of R^n, for
    every n: in partial sums p_l = g_1 + ... + g_l each bounding hyperplane
    is some p_i - p_j = const, and the faces are the simplices
    {m + 1_S : S in a chain of subsets} (`_faces`; Lam-Postnikov, "Alcoved
    polytopes I").  A face is the tuple of its vertices.  The inner cell
    (j, b) is the translate by b of the cell (j, 0), so the open faces of
    (j, 0) are listed once per (n, j) (`_open_faces`), each with its vertex
    count k and vertex sum kg, k times its barycenter.  A pair tests each of
    them at its barycenter, in integers, against the outer corner taken
    relative to b, and translates by b only the faces that enter X.  Against
    the outer cell a point is tested through one lift: the canonical one,
    whose coordinates lie in (a_l - (n+1), a_l] for the outer corner a.  The
    outer closure contains the point iff it contains that lift, so no search
    over translates is needed.  `region_pair` works for any n.

2.  For n <= 2 the locally closed X is replaced by a compact deformation
    retract: the inner cell's strict inequalities are tightened by a rational
    margin epsilon < 1/4 (every grid face keeps its barycenter, with slack
    >= 1/3, so no piece degenerates).  One clipper cuts each grid face, point,
    segment or polygon, against the tightened halfspaces in exact integers,
    on homogeneous points (X_1, ..., X_n, W) = X / W; this yields a polytopal
    complex, triangulated by fanning each polygon from its lexicographically
    smallest vertex; the A-faces form a subcomplex.  Clipping and fanning
    commute with integer translations, X -> X + t W, so each face is clipped
    relative to the inner corner, against halfspaces that depend only on the
    level and the margin; each face's face-closed set of simplices is
    memoised on exactly that, and its points stay relative to the corner.

3.  Ranks of the relative simplicial cochain complex over Q are computed by
    fraction-free elimination on the nonzero entries of the integer
    coboundary matrices, each row divided by the gcd of its entries.

Summing the resulting Betti profiles over one cell per translation orbit of
the inner offset gives the hom-space dimensions that `oracle_hom_dim` reports;
they land in degree 0 only and match the binomial counts of the quiver side.

One loop, `cell_pair_profiles`, serves every margin: it builds each pair
(X, A) once, since the pair does not depend on epsilon, and moves it to the
inner corner, X - b and A - b with the inner cell at offset 0.  By point 2
the moved pair shrinks to the same simplicial pair, so the profile at each
margin is memoised on the moved pair and the margin (`_corner_profile`): at
n = 2 the 81 pairs of the command have 32 shapes, and 64 shrinks serve both
margins.  The command-line report passes epsilon and epsilon/2, as separate
keys, to get the match and the stability check from a single pass.

Why each pair's profile is (1, 0, ..., 0) or zero, for every n (the facet
split).  Take the outer cell (i, a) and the inner cell (j, b).  Lift the
outer closure to C = {g <= a, sum(g - a) >= i} and the inner cell to
D = {g < b', sum(g - b') > j}, with the canonical lift
b'_l = a_l - ((a_l - b_l) mod (n+1)), so b' <= a.  On the torus X is the union
of the pieces Q_s = D ∩ (C + (n+1)s), s in Z^n, and A meets each piece in
its points on the boundary of C + (n+1)s.  Translates of C share only
boundary points, so two pieces meet only inside A.  Each nonempty piece is a
simplex of the cells' shape, {g <= v, sum g >= c} with vertex
v = min(b', a + (n+1)s), and each of its facets is either the inner cell's,
open, or the outer cell's, closed, in A (the inner cell's where both agree).

- For s = 0 every coordinate facet is the inner cell's, since b' <= a, and
  the sum facet is too iff sum(b' - a) >= i - j.  Then the piece is all of
  D, inside the open outer cell, so X = D, A is empty and H*(X, A) is
  (1, 0, ..., 0).  This is `cells.hom_from_cells`'s containment condition.
- Otherwise every nonempty piece has a closed facet: the sum facet for s = 0,
  a coordinate facet l with s_l < 0 for s != 0 (pieces with some s_l > 0 are
  empty).  It also keeps an open facet: a piece with every facet closed
  would need every s_l <= -1, and then
  sum(a + (n+1)s - b') + i - j <= n^2 - n(n+1) + i - j <= 0 leaves its sum
  facet to the inner cell.  Push each point x away from the barycentre p of
  the vertices opposite the closed facets, along x + t(x - p): the
  barycentric coordinates of the open facets grow, those of the closed
  facets sum to less than 1, so their sum falls, and the first of them to
  reach 0 stops x in A.
  The stopping time is continuous and 0 on A, so the piece retracts onto its
  part of A, the retractions agree where pieces meet, and H*(X, A) = 0.

`tests/test_oracle.py` checks this prediction, and that A is empty exactly
in the first case, on every pair the command builds.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .cells import CellObject, offset_window

# A halfspace bounded by coeffs . x = rhs: read with < for the open inner
# cell, and by the shrink step with <= on homogeneous points (see `Point`).
Constraint = tuple[tuple[int, ...], int]

# Largest admissible shrink margin: a quarter of the arrangement's vertex gap.
MAX_EPSILON = Fraction(1, 4)


def _simplex_constraints(level: int, offset: Sequence[int]) -> list[Constraint]:
    """Halfspace description of an open cell's standard lift.

    The region is {g_l < offset_l for all l, sum(g - offset) > level}; the sum
    constraint is stored negated so every constraint reads coeffs . x < rhs.
    """
    n = len(offset)
    cons = [(tuple(int(i == l) for i in range(n)), offset[l]) for l in range(n)]
    return cons + [((-1,) * n, -(level + sum(offset)))]


# --- the grid triangulation -------------------------------------------------

# A grid face is the tuple of its vertices, in chain order (see `_faces`).
Face = tuple[tuple[int, ...], ...]


def _chains(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every chain {} = S_0 < S_1 < ... < S_r of subsets of {1, ..., n}, as its steps.

    Vertex S of the face at lattice point m is m + step, step_l = [l in S] - [l-1 in S].
    """
    subsets = [frozenset(c) for k in range(1, n + 1) for c in itertools.combinations(range(1, n + 1), k)]
    chains = [(frozenset(),)]
    for chain in chains:  # the list grows while it is walked
        chains.extend(chain + (s,) for s in subsets if chain[-1] < s)
    return [tuple(tuple(int(l in s) - int(l - 1 in s) for l in range(1, n + 1)) for s in c) for c in chains]


def _lattice_points(level: int, offset: Sequence[int]) -> Iterator[list[int]]:
    """The lattice points m of the closed cell {g_l <= offset_l, sum(g - offset) >= level}."""
    for depth in itertools.product(range(1 - level), repeat=len(offset)):
        if sum(depth) <= -level:
            yield [b - d for b, d in zip(offset, depth)]


def _faces(n: int, level: int, offset: Sequence[int]) -> Iterator[Face]:
    """Every grid face whose minimal vertex lies in the closed cell (level, offset).

    In partial sums p_l = g_1 + ... + g_l every bounding hyperplane, g_l = const
    or sum g = const, is a hyperplane p_i - p_j = const with p_0 = 0.  The faces
    of that arrangement's triangulation are {m + 1_S : S in a chain}, one for
    each lattice point m and chain {} = S_0 < S_1 < ... < S_r of subsets of
    {1, ..., n}; in g-coordinates vertex S is m_l + [l in S] - [l-1 in S].  A
    face of the open cell has all its vertices, m among them, in the closed
    cell {g_l <= offset_l, sum(g - offset) >= level}.

    >>> [len(list(_faces(n, -1, (0,) * n))) // (n + 1) for n in (1, 2, 3, 4)]
    [2, 6, 26, 150]
    """
    chains = _chains(n)
    for m in _lattice_points(level, offset):
        for steps in chains:
            yield tuple(tuple(map(add, m, step)) for step in steps)


@functools.lru_cache(maxsize=64)
def _open_faces(n: int, level: int) -> tuple[tuple[int, tuple[int, ...], Face], ...]:
    """The open faces of the cell (level, 0), each as (k, kg, face).

    k is the face's vertex count and kg its vertex sum, k times its barycenter
    g.  No open grid face crosses a bounding hyperplane, so g decides it: the
    face lies in the open cell iff every g_l < 0 and sum g > level.  The cell
    (level, b) holds the same faces translated by b, with vertex sums kg + k b.
    """
    out = []
    for face in _faces(n, level, (0,) * n):
        k, kg = len(face), tuple(map(sum, zip(*face)))
        if sum(kg) > k * level and max(kg) < 0:
            out.append((k, kg, face))
    return tuple(out)


def counts_by_dim(n: int, faces: Iterable[Sequence]) -> tuple[int, ...]:
    """The number of faces (vertex tuples) of each dimension 0, ..., n."""
    out = [0] * (n + 1)
    for face in faces:
        out[len(face) - 1] += 1
    return tuple(out)


# --- regions and pairs ------------------------------------------------------

@dataclass(frozen=True)
class RegionPair:
    """The pair (X, A) for an outer/inner cell, plus the inner cell.

    X and A are finite sets of relatively open grid faces.  Coordinates are
    standard lifts to R^n of the covering torus (R/(n+1)Z)^n; the lift is
    injective on everything stored here.  The shrink step tightens the
    halfspaces of the (lifted) `inner` cell.
    """

    X: frozenset[Face]
    A: frozenset[Face]
    inner: CellObject

    @property
    def n(self) -> int:
        return self.inner.n


def region_pair(outer: CellObject, inner: CellObject) -> RegionPair:
    """Compute X = closure(outer) ∩ inner and A = boundary(outer) ∩ inner.

    Both cells live on the covering torus; the computation takes the inner
    cell's grid faces from the listing of its level at offset 0 and tests each
    against the outer cell through the canonical lift of its barycenter, in
    integers.  Any n is supported.
    """
    n = outer.n
    if inner.n != n:
        raise ValueError("cells must share a dimension")
    x_faces: set[Face] = set()
    a_faces: set[Face] = set()
    # Each open face of the inner cell (level, b) is a face of (level, 0),
    # with vertex sum kg = k * g, translated by b; every bound below is scaled
    # by its vertex count k, and kg + k b is tested against the outer corner a
    # through kg against a - b.
    # The outer closure is {g : g_l <= a_l, sum(g - a) >= level} modulo (n+1)Z^n.
    # Among the lifts g' of a point with g' <= a, the canonical one,
    # g'_l = a_l - depth_l with depth_l = (a_l - g_l) mod (n+1) in [0, n+1),
    # has the largest sum(g' - a) = -sum(depth) <= 0.  Any other one is at least
    # n+1 lower in some coordinate, so its sum is at most -(n+1) <= level: it adds
    # nothing to the closure and never lies in the open cell.  With
    # slack = -sum(depth) - level, the point is in the closure iff slack >= 0,
    # and in the open cell iff also slack > 0 and every depth_l > 0.
    b = inner.offset
    rel = [al - bl for al, bl in zip(outer.offset, b)]
    for k, kg, face in _open_faces(n, inner.level):
        depth = [(k * rl - kg_l) % (k * (n + 1)) for rl, kg_l in zip(rel, kg)]
        slack = -sum(depth) - k * outer.level
        if slack >= 0:
            face = tuple(tuple(map(add, v, b)) for v in face)
            x_faces.add(face)
            if slack == 0 or 0 in depth:
                a_faces.add(face)
    return RegionPair(frozenset(x_faces), frozenset(a_faces), inner)


# --- shrink and triangulate -------------------------------------------------

@dataclass(frozen=True)
class SimplicialPair:
    """A finite simplicial complex with a subcomplex, purely combinatorial.

    Simplices are sorted tuples of vertex keys (the shrink model's are `Point`s);
    that order orients them.  `simplices` is face-closed, and so is its subset `sub`.
    """

    n: int
    simplices: frozenset[tuple]
    sub: frozenset[tuple]


# A clipped point in homogeneous integers: (X_1, ..., X_n, W) is X / W, with
# W > 0 and gcd 1, so equal points are equal tuples.
Point = tuple[int, ...]


def _clip_polygon(points: list[Point], cons: Sequence[Constraint]) -> list[Point]:
    """Clip a point, segment or convex polygon to {X/W : coeffs . X - rhs W <= 0}.

    Sutherland-Hodgman, one halfspace at a time; with sides h = coeffs . X - rhs W
    the crossing of cur -> nxt is +-(h_nxt cur - h_cur nxt) over its gcd.  A 1-point
    list is kept or dropped whole.  A segment is walked p -> q -> p: both crossings
    give the same exact point and the duplicate pass merges them, so the result runs
    p -> q, or is one point where the segment only touches the boundary.
    """
    poly = points
    for coeffs, rhs in cons:
        if not poly:
            return []
        side = [sum(map(mul, coeffs, pt)) - rhs * pt[-1] for pt in poly]
        out: list[Point] = []
        for cur, hc, nxt, hn in zip(poly, side, poly[1:] + poly[:1], side[1:] + side[:1]):
            if hc <= 0:
                out.append(cur)
            if (hc <= 0) != (hn <= 0):
                cross = [hn * c - hc * x for c, x in zip(cur, nxt)]
                g = math.gcd(*cross) if cross[-1] > 0 else -math.gcd(*cross)
                out.append(tuple(v // g for v in cross))
        poly = []
        for pt in out:  # drop consecutive duplicates (wraparound included)
            if not poly or pt != poly[-1]:
                poly.append(pt)
        if len(poly) > 1 and poly[0] == poly[-1]:
            poly.pop()
    return poly


def _piece_simplices(face: Face, shrink: Sequence[Constraint]) -> list[tuple[Point, ...]]:
    """Top simplices of one grid face clipped against the shrink halfspaces."""
    poly = _clip_polygon([v + (1,) for v in face], shrink)
    if len(poly) < 3:
        return [tuple(poly)] if poly else []
    # the lexicographically smallest vertex, compared over a common denominator
    den = math.lcm(*(pt[-1] for pt in poly))
    anchor = min(range(len(poly)), key=lambda i: [x * (den // poly[i][-1]) for x in poly[i][:-1]])
    a, *rest = poly[anchor:] + poly[:anchor]
    # the planar fan drops a triangle whose 3x3 homogeneous determinant is 0
    return [(a, b, c) for b, c in zip(rest, rest[1:])
            if a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])]


@functools.lru_cache(maxsize=4096)
def _relative_closure(face: Face, shrink: tuple[Constraint, ...]) -> frozenset[tuple[Point, ...]]:
    """Every simplex of a face's `_piece_simplices`, closed under faces.

    A simplex is the sorted tuple of its points.  Memoised: the face is taken
    relative to the inner corner, so the key fixes its shape, the inner level
    and the margin.  At level -2, margin 1/8, the segment [-1, 0] keeps [-1, -1/8]:

    >>> sorted(_relative_closure(((-1,), (0,)), (((8,), -1), ((-8,), 15))))
    [((-1, 1),), ((-1, 1), (-1, 8)), ((-1, 8),)]
    """
    return frozenset(
        simplex
        for piece in _piece_simplices(face, shrink)
        for k in range(1, len(piece) + 1)
        for simplex in itertools.combinations(sorted(piece), k)
    )


def shrink_and_triangulate(pair: RegionPair, epsilon: Fraction | int | str) -> SimplicialPair:
    """Compact model of the pair: tighten the inner halfspaces, clip, fan.

    `epsilon` must be a positive rational below 1/4 (a quarter of the grid's
    vertex gap); halving it never changes the result's cohomology.  The
    polygon fan is planar, so only n = 1 and n = 2 are supported.  For epsilon
    = p/q a tightened halfspace c . x <= r - p/q is clipped as (q c, q r - p).
    """
    n = pair.n
    if n not in (1, 2):
        raise ValueError("the shrink model supports n = 1 and n = 2 only")
    eps = Fraction(epsilon)
    if not 0 < eps < MAX_EPSILON:
        raise ValueError(f"epsilon must lie strictly between 0 and {MAX_EPSILON}")
    p, q = eps.numerator, eps.denominator
    # Relative to the inner corner the halfspaces are those of the cell at offset 0,
    # and the points stay relative to it (point 2 of the module docstring).
    shrink = tuple((tuple(q * c for c in coeffs), q * rhs - p)
                   for coeffs, rhs in _simplex_constraints(pair.inner.level, (0,) * n))
    # A is a subset of X, so each face is clipped once and an A face's closure also goes into `sub`.
    closures = {
        face: _relative_closure(tuple(tuple(map(sub, v, pair.inner.offset)) for v in face), shrink)
        for face in pair.X
    }
    return SimplicialPair(
        n=n,
        simplices=frozenset().union(*closures.values()),
        sub=frozenset().union(*map(closures.get, pair.A)),
    )


# --- exact linear algebra and Betti numbers ---------------------------------

def matrix_rank_exact(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination on its nonzero entries.

    Each row is reduced against the pivot rows found so far, as a dict
    {column: entry} divided by the gcd of its entries: while its leading
    column holds a pivot row p, the row r becomes p[col] r - r[col] p, which
    clears that column and keeps the span over Q.  A row that keeps a
    leading column with no pivot becomes the pivot there; one that reaches
    zero adds nothing.  The rank is the number of pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: v for c, v in enumerate(row) if v}
        while r:
            g = math.gcd(*r.values())
            if g > 1:
                r = {c: v // g for c, v in r.items()}
            col = min(r)
            p = pivots.get(col)
            if p is None:
                pivots[col] = r
                break
            pc, rc = p[col], r[col]
            r = {c: pc * v for c, v in r.items()}
            for c, v in p.items():
                x = r.get(c, 0) - rc * v
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(pivots)


BettiProfile = tuple[int, ...]


def relative_cohomology(sp: SimplicialPair) -> BettiProfile:
    """Betti numbers of the relative cochain complex over Q, degrees 0..n.

    Cochains live on simplices outside the subcomplex; the coboundary uses the
    orientation induced by sorted vertex order.
    """
    rel = sorted(
        (s for s in sp.simplices if s not in sp.sub), key=lambda s: (len(s), s)
    )
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for s in rel:
        by_dim.setdefault(len(s) - 1, []).append(s)
    index = {
        dim: {s: i for i, s in enumerate(group)} for dim, group in by_dim.items()
    }

    def coboundary_rank(dim: int) -> int:
        lower = by_dim.get(dim, [])
        upper = by_dim.get(dim + 1, [])
        if not lower or not upper:
            return 0
        rows = []
        for tau in upper:
            row = [0] * len(lower)
            for p in range(len(tau)):
                face = tau[:p] + tau[p + 1 :]
                col = index[dim].get(face)
                if col is not None:
                    row[col] = 1 if p % 2 == 0 else -1
            rows.append(row)
        return matrix_rank_exact(rows)

    ranks = {dim: coboundary_rank(dim) for dim in range(-1, sp.n + 1)}
    betti = []
    for dim in range(sp.n + 1):
        count = len(by_dim.get(dim, []))
        betti.append(count - ranks[dim] - ranks.get(dim - 1, 0))
    return tuple(betti)


@functools.lru_cache(maxsize=4096)
def _corner_profile(pair: RegionPair, epsilon: Fraction) -> BettiProfile:
    """The relative Betti profile of a pair moved to the inner corner, at one margin.

    Memoised: the key holds X, A and the inner cell (level, (0,) * n), so it
    fixes n, the inner level and the pair's shape, and the margin.
    """
    return relative_cohomology(shrink_and_triangulate(pair, epsilon))


def cell_pair_profiles(
    i: int, j: int, n: int, margins: Sequence[Fraction | int | str]
) -> Iterator[tuple[tuple[int, ...], RegionPair, list[BettiProfile]]]:
    """The oracle loop: one (offset, pair, profiles) per inner cell.

    The outer cell sits at level i and offset 0; the inner cell runs over
    level j at every offset of `offset_window`.  Each pair is built once and
    moved to the inner corner: X - b and A - b, with the inner cell at offset
    0.  The shrink clips each face relative to that corner, so the moved pair
    gives the same simplicial pair, and its profile at each margin is taken
    from `_corner_profile`, once per shape, level and margin.  `profiles`
    holds one relative Betti profile per margin, in the order given; the
    yielded pair is the unmoved one.
    """
    outer = CellObject(i, (0,) * n)
    corner = CellObject(j, (0,) * n)
    margins = [Fraction(eps) for eps in margins]
    for offset in offset_window(n):
        pair = region_pair(outer, CellObject(j, offset))
        moved = {face: tuple(tuple(map(sub, v, offset)) for v in face) for face in pair.X}
        key = RegionPair(frozenset(moved.values()), frozenset(map(moved.get, pair.A)), corner)
        profiles = [_corner_profile(key, eps) for eps in margins]
        yield offset, pair, profiles


def oracle_hom_dim(
    i: int, j: int, n: int, epsilon: Fraction | int | str = Fraction(1, 8)
) -> BettiProfile:
    """Graded hom-space dimensions from level i to level j, by cohomology.

    Sums the relative Betti profiles of (closure(U), U') over one inner cell
    U' per translation orbit, with the outer cell fixed at offset 0.  The
    result is concentrated in degree 0, where it equals the binomial count of
    the quiver calculus.
    """
    profiles = [betti for _, _, (betti,) in cell_pair_profiles(i, j, n, (epsilon,))]
    return tuple(sum(degree) for degree in zip(*profiles))
