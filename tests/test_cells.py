"""Tests for the quotient cell category and its quiver."""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from dataclasses import dataclass

from tdual import bundles, cells
from tdual.cells import CellObject, hom_labels


@dataclass(frozen=True)
class HomElement:
    """Quotient morphism from level `source` to level `target`.

    The multi-index `steps` has nonpositive entries with
    sum(steps) >= source - target; it records the corner offset of the inner
    cell relative to the outer cell realizing the morphism on the cover.
    """

    source: int
    target: int
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        st = tuple(int(v) for v in self.steps)
        if not st:
            raise ValueError("steps must be nonempty")
        if any(v > 0 for v in st):
            raise ValueError(f"step entries must be nonpositive: {st}")
        if sum(st) < self.source - self.target:
            raise ValueError(
                f"sum of steps {sum(st)} below source - target = "
                f"{self.source - self.target}"
            )
        object.__setattr__(self, "steps", st)

    @property
    def n(self) -> int:
        return len(self.steps)


def hom_basis(i: int, j: int, n: int) -> list[HomElement]:
    """Basis of the quotient hom space from level i to level j: the rows of `hom_labels`.

    Empty for j < i; for j >= i the basis has binomial(j - i + n, n) elements,
    one per multi-index b <= 0 with sum(b) >= i - j.

    >>> [e.steps for e in hom_basis(-2, -1, 2)]
    [(-1, 0), (0, -1), (0, 0)]
    """
    return [HomElement(i, j, steps) for steps in hom_labels(j - i, n).tolist()]


def compose(g: HomElement, f: HomElement) -> HomElement:
    """Composite of f followed by g; multi-indices add.

    >>> f = HomElement(-3, -2, (0, -1))
    >>> g = HomElement(-2, -1, (-1, 0))
    >>> compose(g, f).steps
    (-1, -1)
    """
    if g.source != f.target:
        raise ValueError(
            f"morphisms not composable: f targets {f.target}, g starts at {g.source}"
        )
    if g.n != f.n:
        raise ValueError("morphisms must share a dimension")
    return HomElement(f.source, g.target, tuple(b + c for b, c in zip(f.steps, g.steps)))


def all_cells(n):
    for level in range(-n - 1, 0):
        for offset in itertools.product(range(-n, 1), repeat=n):
            yield CellObject(level, offset)


def _step_vectors(n, lower):
    """All multi-indices with nonpositive entries and sum >= lower, lex order (recursive reference)."""
    if n == 0:
        yield ()
        return
    for first in range(lower, 1):
        for rest in _step_vectors(n - 1, lower - first):
            yield (first,) + rest


def test_cell_object_validation():
    with pytest.raises(ValueError):
        CellObject(-3, (0,))  # level below -n-1 for n=1
    with pytest.raises(ValueError):
        CellObject(0, (0,))
    with pytest.raises(ValueError):
        CellObject(-1, (1, 0))
    with pytest.raises(ValueError):
        CellObject(-1, (-3, 0))


def test_hom_element_validation():
    with pytest.raises(ValueError):
        HomElement(-2, -1, (1,))  # positive step
    with pytest.raises(ValueError):
        HomElement(-2, -1, (-2,))  # sum below source - target
    with pytest.raises(ValueError):
        HomElement(-1, -2, (0,))  # backward morphisms need sum >= 1, impossible
    e = HomElement(-2, -1, (-1, 0))
    assert e.n == 2
    assert e.steps == (-1, 0)


def test_containment_basic_examples():
    assert cells.cell_contains(CellObject(-2, (0, 0)), CellObject(-1, (0, 0)))
    assert not cells.cell_contains(CellObject(-2, (-1, 0)), CellObject(-1, (0, 0)))
    # every cell contains itself
    for c in all_cells(2):
        assert cells.cell_contains(c, c)


def test_containment_wraps_around_the_torus():
    # n = 1: big cell with corner -1 contains the small cell with corner 0
    # only through the translated lift 0 - 2 = -2
    outer = CellObject(-2, (-1,))
    inner = CellObject(-1, (0,))
    label = cells.hom_from_cells(outer, inner)
    assert label == (-1,)
    assert tuple(a + b for a, b in zip(outer.offset, label)) == (-2,)  # the lift
    assert HomElement(outer.level, inner.level, label) == HomElement(-2, -1, (-1,))


def test_containment_reverses_levels_only_one_way():
    # strictly smaller level cells are never contained in bigger-level cells
    for n in (1, 2):
        for outer in all_cells(n):
            for inner in all_cells(n):
                if inner.level < outer.level:
                    assert not cells.cell_contains(outer, inner)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_containment_lift_is_unique(n):
    """A widened search over lifts finds exactly what the closed form returns.

    The reference enumerates every lift b + (n+1) m with m in {-2, ..., 2}^n,
    which already holds at most one valid lift; shifted by the outer corner,
    it must agree with the label of `hom_from_cells` pair by pair.  For n = 3
    the outer corner stays at the origin: translating both cells by a deck
    element shifts every lift by the same amount, so the result only depends
    on the offset difference.
    """
    period = n + 1
    outer_cells = (
        all_cells(n)
        if n <= 2
        else (CellObject(level, (0,) * n) for level in range(-n - 1, 0))
    )
    for outer in outer_cells:
        a = outer.offset
        for inner in all_cells(n):
            reference = []
            for m in itertools.product(range(-2, 3), repeat=n):
                lift = tuple(b + period * mi for b, mi in zip(inner.offset, m))
                if all(bp <= ai for bp, ai in zip(lift, a)) and (
                    sum(lift) - sum(a) >= outer.level - inner.level
                ):
                    reference.append(lift)
            assert len(reference) <= 1, (outer, inner, reference)
            labels = [tuple(bp - ai for bp, ai in zip(lift, a)) for lift in reference]
            assert cells.hom_from_cells(outer, inner) == (labels[0] if labels else None), (outer, inner)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hom_dimensions_binomial(n):
    for i in range(-n - 1, 0):
        for j in range(-n - 1, 0):
            dim = len(hom_basis(i, j, n))
            if j < i:
                assert dim == 0
            else:
                assert dim == math.comb(j - i + n, n)


def test_hom_dimension_pinned_example():
    assert len(hom_basis(-2, -1, 2)) == 3
    assert [e.steps for e in hom_basis(-2, -1, 2)] == [(-1, 0), (0, -1), (0, 0)]


@pytest.mark.parametrize("n", [1, 2])
def test_hom_basis_matches_containments(n):
    """Basis elements out of a fixed outer cell = cells it contains, one each."""
    for i in range(-n - 1, 0):
        outer = CellObject(i, (0,) * n)
        for j in range(-n - 1, 0):
            basis = hom_basis(i, j, n)
            # each basis element is realized by the inner cell at its steps
            realized = set()
            for e in basis:
                inner = CellObject(j, e.steps)
                assert cells.hom_from_cells(outer, inner) == e.steps
                realized.add(inner)
            assert len(realized) == len(basis)
            # and no other inner cell of that level is contained in outer
            contained = {
                inner
                for inner in all_cells(n)
                if inner.level == j and cells.cell_contains(outer, inner)
            }
            assert contained == realized


@pytest.mark.parametrize("n", [1, 2, 3])
def test_containment_labels_out_of_every_outer_cell_are_the_hom_labels(n):
    """Out of any outer cell, the labels of the contained cells of level j are the rows of `hom_labels`, each once.

    `cell_contains` holds exactly where `hom_from_cells` returns a label.
    """
    for outer in all_cells(n):
        found = {}
        for inner in all_cells(n):
            label = cells.hom_from_cells(outer, inner)
            assert cells.cell_contains(outer, inner) == (label is not None)
            if label is not None:
                found.setdefault(inner.level, []).append(list(label))
        for j in range(-n - 1, 0):
            assert sorted(found.get(j, [])) == hom_labels(j - outer.level, n).tolist(), (outer, j)


def test_hom_from_cells_refuses_cells_of_different_dimensions():
    with pytest.raises(ValueError, match="^cells must share a dimension$"):
        cells.hom_from_cells(CellObject(-2, (0,)), CellObject(-1, (0, 0)))


def test_compose_adds_steps():
    f = HomElement(-3, -2, (0, -1))
    g = HomElement(-2, -1, (-1, 0))
    gf = compose(g, f)
    assert gf == HomElement(-3, -1, (-1, -1))
    with pytest.raises(ValueError):
        compose(f, g)  # not composable in this order


def test_compose_matches_nested_containments():
    """Adding multi-indices equals the direct containment morphism."""
    n = 2
    big = CellObject(-3, (0, 0))
    for mid in all_cells(n):
        if not cells.cell_contains(big, mid):
            continue
        for small in all_cells(n):
            if not cells.cell_contains(mid, small):
                continue
            f = HomElement(big.level, mid.level, cells.hom_from_cells(big, mid))
            g = HomElement(mid.level, small.level, cells.hom_from_cells(mid, small))
            direct = cells.hom_from_cells(big, small)
            assert direct is not None
            assert compose(g, f) == HomElement(big.level, small.level, direct)


@pytest.mark.parametrize("n", [1, 2])
def test_composition_associative_exhaustive(n):
    levels = range(-n - 1, 0)
    for i, j, k, l in itertools.product(levels, repeat=4):
        if not (i <= j <= k <= l):
            continue
        for f in hom_basis(i, j, n):
            for g in hom_basis(j, k, n):
                for h in hom_basis(k, l, n):
                    left = compose(h, compose(g, f))
                    right = compose(compose(h, g), f)
                    assert left == right


def test_composition_associative_sampled_n3():
    f = HomElement(-4, -3, (0, -1, 0))
    g = HomElement(-3, -2, (-1, 0, 0))
    h = HomElement(-2, -1, (0, 0, -1))
    assert compose(h, compose(g, f)) == compose(
        compose(h, g), f
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_units(n):
    for i in range(-n - 1, 0):
        e = HomElement(i, i, (0,) * n)
        assert e.steps == (0,) * n
        for j in range(i, 0):
            for f in hom_basis(i, j, n):
                assert compose(f, e) == f
                ej = HomElement(j, j, (0,) * n)
                assert compose(ej, f) == f


def test_deck_translate_preserves_containment_and_homs():
    """A common translation by a shift in (Z/(n+1))^n changes no containment and no hom."""
    n = 2

    def translate(shift, c):
        # offsets reduced back to the window {-n, ..., 0}
        return CellObject(c.level, tuple(-((-(o + s)) % (n + 1)) for o, s in zip(c.offset, shift)))

    shifts = list(itertools.product(range(3), repeat=2))
    pairs = [
        (outer, inner)
        for outer in all_cells(n)
        for inner in all_cells(n)
        if outer.level <= inner.level
    ]
    for alpha in shifts:
        for outer, inner in pairs:
            t_outer = translate(alpha, outer)
            t_inner = translate(alpha, inner)
            assert cells.cell_contains(outer, inner) == cells.cell_contains(
                t_outer, t_inner
            )
            assert cells.hom_from_cells(outer, inner) == cells.hom_from_cells(
                t_outer, t_inner
            )


@pytest.mark.parametrize("n", [1, 2])
def test_generation_by_consecutive_levels(n):
    """Every morphism over more than one level factors through the next level."""
    levels = range(-n - 1, 0)
    for i in levels:
        for j in levels:
            if j <= i + 1:
                continue
            step_homs = hom_basis(i, i + 1, n)
            rest_homs = hom_basis(i + 1, j, n)
            products = {compose(g, f) for f in step_homs for g in rest_homs}
            assert products == set(hom_basis(i, j, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compose_block_matches_single_compose(n):
    """One block rule composes both quivers, as compose and monomial_compose do per pair."""
    from test_bundles import monomial_compose, monomial_hom_basis  # test_bundles imports this module

    for q, basis, single, label in (
        (cells.quotient_quiver(n), hom_basis, compose, "steps"),
        (bundles.line_bundle_quiver(n), monomial_hom_basis, monomial_compose, "exponents"),
    ):
        for i, j, k, fs, gs in q.blocks():
            table = cells.compose_block(gs, fs)
            assert table.dtype == "int64"
            assert table.tolist() == [
                [list(getattr(single(g, f), label)) for g in basis(j, k, n)] for f in basis(i, j, n)
            ]


def test_compose_block_raises_compose_error():
    """Labels one entry wider raise the error compose raises for such a pair."""
    q = cells.quotient_quiver(2)
    fs, gs = q.hom_bases[(-3, -2)], q.hom_bases[(-2, -1)]
    first_f, first_g = HomElement(-3, -2, fs[0]), HomElement(-2, -1, gs[0])
    wide_f, wide_g = HomElement(-3, -2, (0, 0, 0)), HomElement(-2, -1, (0, 0, 0))
    for block_gs, block_fs, g, f in (
        (gs, np.array([wide_f.steps]), first_g, wide_f),  # the f labels are wider
        (np.array([wide_g.steps]), fs, wide_g, first_f),  # the g labels are wider
    ):
        with pytest.raises(ValueError) as block_error:
            cells.compose_block(block_gs, block_fs)
        with pytest.raises(ValueError) as pair_error:
            compose(g, f)
        assert str(block_error.value) == str(pair_error.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quotient_quiver_strong_exceptional(n):
    q = cells.quotient_quiver(n)
    assert cells.is_strong_exceptional(q)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_composition_count_closed_form(n):
    """`len(q.composition)` is the number of composable basis pairs, in closed form."""
    levels = range(-n - 1, 0)
    expected = sum(
        math.comb(j - i + n, n) * math.comb(k - j + n, n)
        for i in levels
        for j in levels
        for k in levels
        if i <= j <= k
    )
    assert len(cells.quotient_quiver(n).composition) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quotient_quiver_bases_match_recursive_reference(n):
    q = cells.quotient_quiver(n)
    levels = range(-n - 1, 0)
    assert list(q.hom_bases) == [(i, j) for i in levels for j in levels if i <= j]
    for (i, j), basis in q.hom_bases.items():
        assert basis.dtype == "int64" and basis.flags.c_contiguous
        assert basis.tolist() == [list(steps) for steps in _step_vectors(n, i - j)]


@pytest.mark.parametrize("entries", [1 << 18, 1, 5, 12])
def test_hom_labels_in_row_chunks_equal_the_one_shot_build(entries, monkeypatch):
    """Labels filled from row chunks of the sequences are those of one array of all of them, byte for byte."""
    monkeypatch.setattr(cells, "CHUNK_ENTRIES", entries)
    for n in range(1, 6):
        for d in range(-2, n + 3):
            count = math.comb(max(d + n, 0), n)
            runs = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(d + 1), n + 1))
            runs = np.fromiter(runs, dtype=np.int64, count=count * (n + 1)).reshape(count, n + 1)[::-1]
            expected = np.subtract(runs[:, :-1], runs[:, 1:])
            got = cells.hom_labels(d, n)
            assert got.shape == expected.shape and got.dtype == expected.dtype and got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hom_labels_of_negative_degree_are_empty(n):
    from test_bundles import monomial_hom_basis  # test_bundles imports this module

    for d in range(-n - 2, 0):
        assert cells.hom_labels(d, n).shape == (0, n)
        assert bundles.exponent_labels(d, n).shape == (0, n + 1)
        assert hom_basis(-1, -1 + d, n) == [] == monomial_hom_basis(-1, -1 + d, n)


@pytest.mark.parametrize("build", [cells.quotient_quiver, bundles.line_bundle_quiver])
def test_keys_of_one_degree_share_one_read_only_basis(build):
    """Each degree's basis is built once and shared; writing into it raises instead of corrupting every key."""
    n = 3
    q = build(n)
    for d in range(n + 1):
        shared = q.hom_bases[(-n - 1, -n - 1 + d)]
        assert all(q.hom_bases[(i, i + d)] is shared for i in range(-n - 1, -d))
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1
    assert len({id(basis) for basis in q.hom_bases.values()}) == n + 1


def test_quiver_dims_and_hom_access():
    q = cells.quotient_quiver(2)
    dims = q.dims()
    assert dims[(-3, -1)] == 6
    assert dims[(-2, -1)] == 3
    assert (-1, -3) not in dims
    assert q.hom(-1, -3).shape == (0, 2)
    assert len(q.hom(-3, -2)) == 3
    assert q.hom(-3, -2) is q.hom_bases[(-3, -2)]
    assert q.hom(-3, -2).dtype == "int64"


def test_strong_exceptionality_rejects_backward_hom():
    q = cells.quotient_quiver(1)
    q.hom_bases[(-1, -2)] = np.array([[0]], dtype=np.int64)  # planted junk
    assert not cells.is_strong_exceptional(q)


def test_strong_exceptionality_rejects_fat_endomorphisms():
    q = cells.quotient_quiver(1)
    q.hom_bases[(-1, -1)] = np.concatenate([q.hom_bases[(-1, -1)]] * 2)
    assert not cells.is_strong_exceptional(q)


def test_strong_exceptionality_rejects_wide_unit():
    """A unit label one entry wider does not compose with its neighbours, so it is no unit."""
    q = cells.quotient_quiver(1)
    q.hom_bases[(-1, -1)] = np.zeros((1, 2), dtype=np.int64)
    assert not cells.is_strong_exceptional(q)
    with pytest.raises(ValueError, match="^morphisms must share a dimension$"):
        q.compose(q.hom(-1, -1), q.hom(-2, -1))


@pytest.mark.parametrize("width, passed", [(1, True), (2, False)])
def test_strong_exceptionality_with_an_empty_basis(width, passed):
    """An empty basis holds no composite: as wide as the units it passes, wider it does not compose with them."""
    q = cells.quotient_quiver(1)
    q.hom_bases[(-2, -1)] = np.empty((0, width), dtype=np.int64)
    assert cells.is_strong_exceptional(q) == passed


def test_strong_exceptionality_rejects_broken_unit():
    q = cells.quotient_quiver(1)
    e = q.hom_bases[(-1, -1)]
    basis = q.hom_bases[(-2, -1)]
    f, other = basis[0], basis[1]
    honest = q.compose

    def broken(gs, fs):
        """The honest rule, except on the block (basis, unit) or a chunk of it, known by the chunks' base arrays."""
        table = honest(gs, fs)
        if (gs is e or gs.base is e) and (fs is basis or fs.base is basis):
            table[(fs == f).all(axis=1), 0] = other
        return table

    # the unit no longer acts as identity on f
    q.compose = broken
    assert not cells.is_strong_exceptional(q)


def _base(a):
    """The array that `a` is a chunk of, or `a` itself."""
    return a if a.base is None else a.base


@pytest.mark.parametrize("entries", [1 << 18, 2])
def test_strong_exceptionality_composes_each_distinct_block_once_in_chunks(entries, monkeypatch):
    """At n = 3 the keys share four arrays, one per degree: the check composes eight distinct blocks.

    They are (basis, unit) and (unit, basis) for each array, the unit's with
    itself counted on both sides.  Every compose call stays under the cap of
    `entries` label entries, and together the calls cover each block once.
    """
    monkeypatch.setattr(cells, "CHUNK_ENTRIES", entries)
    q = cells.quotient_quiver(3)
    calls = []

    def compose(gs, fs):
        calls.append((_base(fs), _base(gs), len(fs) * len(gs)))
        return cells.compose_block(gs, fs)

    q.compose = compose
    assert cells.is_strong_exceptional(q)
    assert all(size * 3 <= max(entries, 3) for *_, size in calls)
    covered = {}
    for fs, gs, size in calls:
        covered[id(fs), id(gs)] = covered.get((id(fs), id(gs)), 0) + size
    arrays = {id(basis): basis for basis in q.hom_bases.values()}
    unit = id(q.hom(-1, -1))
    assert covered == {
        **{(key, unit): len(basis) for key, basis in arrays.items()},
        **{(unit, key): len(basis) for key, basis in arrays.items() if key != unit},
        (unit, unit): 2,
    }


@pytest.mark.parametrize("planted", [(-2, -2), (-3, -1)])
def test_strong_exceptionality_checks_an_array_planted_at_one_key(planted):
    """A unit or a basis given its own array at a single key is checked on its own, and a rule broken on it fails.

    The copy holds the same labels, so with the honest rule it passes.  The
    rule then breaks the blocks whose f is the copy: (unit, basis) for the
    unit of level -2, (basis, unit) for hom(-3, -1).  Blocks of the same
    shapes on the shared arrays, at (-4, -4), (-4, -3) and (-4, -2), come
    first in `hom_bases` order and pass.
    """
    q = cells.quotient_quiver(3)
    copy = q.hom_bases[planted] = q.hom_bases[planted].copy()
    assert cells.is_strong_exceptional(q)

    def broken(gs, fs):
        table = cells.compose_block(gs, fs)
        if _base(fs) is copy:
            table[-1, -1, -1] -= 1
        return table

    q.compose = broken
    assert not cells.is_strong_exceptional(q)


def test_quiver_json_locates_each_distinct_block_once():
    """At n = 3 every block fits one chunk, and one compose call serves each distinct (f array, g array, hom(i, k) array)."""
    q = cells.quotient_quiver(3)
    expected = json.dumps(cells.quiver_to_dict(q, "U"), indent=2)
    calls = []

    def compose(gs, fs):
        calls.append((id(_base(fs)), id(_base(gs))))
        return cells.compose_block(gs, fs)

    q.compose = compose
    assert "".join(cells.quiver_json(q, "U")) == expected
    blocks = list(q.blocks())
    distinct = {(id(fs), id(gs), id(q.hom(i, k))) for i, j, k, fs, gs in blocks}
    assert len(calls) == len(distinct) < len(blocks)
    assert sorted(calls) == sorted(key[:2] for key in distinct)


def test_quiver_to_dict_schema():
    q = cells.quotient_quiver(1)
    d = cells.quiver_to_dict(q, "U")
    assert d["n"] == 1
    assert d["objects"] == ["U(-2)", "U(-1)"]
    hom_index = {(h["i"], h["j"]): h["basis"] for h in d["homs"]}
    assert hom_index[(-2, -1)] == [[-1], [0]]
    assert len(d["compositions"]) == len(list(q.compositions()))
    sample = d["compositions"][0]
    assert set(sample) == {"i", "j", "k", "f", "g", "gf"}


def test_quiver_to_dot_counts():
    q = cells.quotient_quiver(1)
    dot = cells.quiver_to_dot(q, "U", "cells")
    assert dot.count('"U(-2)" -> "U(-1)"') == 2
    assert dot.strip().startswith("digraph cells {")
    # n = 2: three generators between consecutive levels, twice
    dot2 = cells.quiver_to_dot(cells.quotient_quiver(2), "U")
    assert dot2.count("->") == 6


@pytest.mark.parametrize("build, prefix", [(cells.quotient_quiver, "U"), (bundles.line_bundle_quiver, "O")])
def test_hom_of_missing_key_is_as_wide_as_the_stored_labels(build, prefix):
    for n in (1, 2, 3):
        q = build(n)
        width = q.hom_bases[(-1, -1)].shape[1]
        assert width == (n if prefix == "U" else n + 1)
        assert q.hom(-1, -n - 1).shape == (0, width)
    assert cells.Quiver(n=2, hom_bases={}, compose=cells.compose_block).hom(-1, -1).shape == (0, 2)


# Ways to embed a value in an indent=2 document, with the indentation of its first line.
EMBEDDINGS = [
    (lambda x: {"x": x}, 2),
    (lambda x: [0, {"x": x}], 4),
    (lambda x: {"a": [[x]]}, 6),
]


def _assert_json_matches(q, prefix):
    """`quiver_json`'s pieces join to `json.dumps(quiver_to_dict(...), indent=2)`, at depth 0 and embedded."""
    d = cells.quiver_to_dict(q, prefix)
    assert "".join(cells.quiver_json(q, prefix)) == json.dumps(d, indent=2)
    for embed, indent in EMBEDDINGS:
        spliced = json.dumps(embed("@"), indent=2).replace('"@"', "".join(cells.quiver_json(q, prefix, "\n" + " " * indent)))
        assert spliced == json.dumps(embed(d), indent=2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("build, prefix", [(cells.quotient_quiver, "U"), (bundles.line_bundle_quiver, "O")])
def test_quiver_json_matches_json_dumps(n, build, prefix):
    _assert_json_matches(build(n), prefix)


@pytest.mark.parametrize("items", [1, 2, 5])
def test_quiver_json_splits_blocks_into_pieces(items, monkeypatch):
    """Blocks cut into pieces of at most `items` compositions still join to the same text."""
    monkeypatch.setattr(cells, "PIECE_ITEMS", items)
    q = cells.quotient_quiver(3)
    pieces = cells.quiver_json(q, "U")
    assert max(piece.count('"gf"') for piece in pieces) == items
    _assert_json_matches(q, "U")


@pytest.mark.parametrize("entries", [1, 10])
def test_quiver_json_composes_blocks_in_chunks(entries, monkeypatch):
    """With a cap of `entries` label entries, every compose call stays under it and the text is unchanged.

    At n = 3 a cap of 1 entry composes every pair alone, and a cap of 10
    composes three f rows against the unit and one f row against three g rows
    of every larger basis.
    """
    monkeypatch.setattr(cells, "CHUNK_ENTRIES", entries)
    calls = []
    q = cells.quotient_quiver(3)

    def compose(gs, fs):
        calls.append((len(fs), gs.shape))
        return cells.compose_block(gs, fs)

    q.compose = compose
    _assert_json_matches(q, "U")
    assert calls and all(f_rows * g_rows * width <= max(entries, width) for f_rows, (g_rows, width) in calls)
    assert any(g_rows < len(q.hom(-4, -1)) for _, (g_rows, _) in calls)


def _scrambled(gs, fs):
    """Composites outside every basis, with multi-digit entries of both signs, repeated within a block."""
    table = cells.compose_block(gs, fs) // 2
    table[..., 0] = table[..., 0] * 1000 - 17
    table[..., -1] = 4321 - table[..., -1] * 11
    return table


def _one_label(label):
    """A compose rule under which every pair of a block composes to `label`."""
    return lambda gs, fs: np.broadcast_to(np.array(label), (len(fs), len(gs), len(label))).copy()


def test_quiver_json_refuses_composites_outside_their_hom_space():
    """A composite that is not a row of hom(i, k) raises, naming its block; quiver_to_dict still writes it."""
    scrambled = cells.Quiver(n=3, hom_bases=cells.quotient_quiver(3).hom_bases, compose=_scrambled)
    tables = [_scrambled(gs, fs).reshape(-1, 3) for *_, fs, gs in scrambled.blocks()]
    assert any(len(np.unique(table, axis=0)) < len(table) for table in tables)
    assert all((table[:, -1] > 0).all() and (table[:, 0] < -9).all() for table in tables)
    missing = cells.quotient_quiver(3)
    del missing.hom_bases[(-4, -2)]
    one_label = cells.quotient_quiver(2)
    one_label.compose = _one_label([-5, 12])
    for q, block in [(scrambled, (-4, -4, -4)), (missing, (-4, -3, -2)), (one_label, (-3, -3, -3))]:
        written = cells.quiver_to_dict(q, "U")["compositions"]
        assert len(written) == len(q.composition)
        blocks = sorted(q.blocks(), key=lambda b: b[:3])
        assert [e["gf"] for e in written] == [gf.tolist() for *_, fs, gs in blocks for gf in q.compose(gs, fs).reshape(-1, q.n)]
        i, j, k = block
        with pytest.raises(ValueError, match=rf"^block \({i}, {j}, {k}\): composites outside hom\({i}, {k}\)"):
            cells.quiver_json(q, "U")


@pytest.mark.parametrize("label", [[-5, 12], [0, 0]])
def test_quiver_json_with_one_composite_per_block(label):
    """Every pair of a block composes to one label: written when it is a row of every hom(i, k), refused otherwise."""
    q = cells.quotient_quiver(2)
    q.compose = _one_label(label)
    assert {tuple(e["gf"]) for e in cells.quiver_to_dict(q, "U")["compositions"]} == {tuple(label)}
    if label == [0, 0]:
        _assert_json_matches(q, "U")
    else:
        with pytest.raises(ValueError, match=r"^block \(-3, -3, -3\)"):
            cells.quiver_json(q, "U")


def test_quiver_json_with_empty_bases_among_composable_ones():
    """A zero-row basis writes an empty list and takes part in no block; a block may target one."""
    q = cells.quotient_quiver(2)
    q.hom_bases[(-3, -2)] = np.empty((0, 2), dtype=np.int64)
    q.hom_bases[(-2, -1)] = np.empty((0, 2), dtype=np.int64)
    q.hom_bases[(-3, -1)] = np.empty((0, 2), dtype=np.int64)
    assert [block[:3] for block in q.blocks()] == [(-3, -3, -3), (-2, -2, -2), (-1, -1, -1)]
    q.hom_bases[(-2, -1)] = cells.quotient_quiver(2).hom_bases[(-2, -1)]
    assert (-2, -2, -1) in [block[:3] for block in q.blocks()]
    _assert_json_matches(q, "U")


def test_quiver_json_writes_shuffled_bases_in_stored_order():
    """Rows and keys out of order (and a repeated row): homs in sorted key order, each block's pairs in stored row order."""
    rng = np.random.default_rng(7)
    q = cells.quotient_quiver(3)
    shuffled = {key: rng.permutation(basis) for key, basis in reversed(list(q.hom_bases.items()))}
    shuffled[(-4, -3)] = np.concatenate([shuffled[(-4, -3)], shuffled[(-4, -3)][:2]])
    q = cells.Quiver(n=3, hom_bases=shuffled, compose=cells.compose_block)
    assert [key for key, _ in q.hom_bases.items()] != sorted(q.hom_bases)
    _assert_json_matches(q, "U")
    fs, gs = shuffled[(-4, -3)], shuffled[(-3, -2)]
    assert fs[0].tolist() != min(fs.tolist())  # the sorted order would start elsewhere
    written = json.loads("".join(cells.quiver_json(q, "U")))["compositions"]
    first = next(e for e in written if (e["i"], e["j"], e["k"]) == (-4, -3, -2))
    assert (first["f"], first["g"]) == (fs[0].tolist(), gs[0].tolist())


def test_row_positions_finds_each_row_and_refuses_the_rest():
    """Shuffled labels with repeated rows: each row found equals its query; a non-member or too wide a span raises."""
    rng = np.random.default_rng(3)
    labels = rng.permutation(np.concatenate([cells.hom_labels(3, 3), cells.hom_labels(2, 3)[:5]]))
    rows = labels[rng.integers(len(labels), size=200)]
    positions = cells._row_positions(labels, rows)
    assert np.array_equal(labels[positions], rows)
    with pytest.raises(ValueError, match="not among the labels"):
        cells._row_positions(labels, np.concatenate([rows, [[1, 0, 0]]]))
    with pytest.raises(ValueError, match="not among the labels"):
        cells._row_positions(labels, np.array([[-2, 2, 0]]))  # the key of [-1, -2, 0], outside the column's range
    with pytest.raises(ValueError, match="no labels"):
        cells._row_positions(labels[:0], rows)
    wide = np.array([[0, 0, 0], [1 << 21, 1 << 21, 1 << 21]])
    assert np.array_equal(cells._row_positions(wide[:, 1:], wide[::-1, 1:]), [1, 0])
    with pytest.raises(ValueError, match="do not fit one int64 key"):
        cells._row_positions(wide, wide)


@pytest.mark.parametrize("bases", [{}, {(-1, -2): np.array([[0]])}, {(-2, -1): np.empty((0, 1), dtype=np.int64)}])
def test_quiver_json_without_composable_blocks(bases):
    q = cells.Quiver(n=1, hom_bases=bases, compose=cells.compose_block)
    assert list(q.blocks()) == []
    assert "".join(cells.quiver_json(q, "U")).endswith('"compositions": []\n}')
    _assert_json_matches(q, "U")


def test_quiver_json_raises_where_the_compose_rule_does():
    q = cells.quotient_quiver(1)
    q.hom_bases[(-1, -1)] = np.zeros((1, 2), dtype=np.int64)  # a unit that does not compose
    for export in (cells.quiver_to_dict, cells.quiver_json):
        with pytest.raises(ValueError, match="^morphisms must share a dimension$"):
            export(q, "U")
