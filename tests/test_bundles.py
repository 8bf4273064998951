"""Tests for monomial hom spaces and the quiver comparison."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from tdual import bundles, cells
from tdual.bundles import exponent_labels

from test_cells import HomElement, compose


@dataclass(frozen=True)
class Monomial:
    """A monomial hom between line-bundle levels.

    `exponents` has n+1 nonnegative entries summing to target - source.
    """

    source: int
    target: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(int(v) for v in self.exponents)
        if len(exps) < 2:
            raise ValueError("need at least two exponents")
        if any(v < 0 for v in exps):
            raise ValueError(f"exponents must be nonnegative: {exps}")
        if sum(exps) != self.target - self.source:
            raise ValueError(
                f"total degree {sum(exps)} must equal target - source = "
                f"{self.target - self.source}"
            )
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self) -> int:
        return len(self.exponents) - 1


def monomial_hom_basis(i: int, j: int, n: int) -> list[Monomial]:
    """All degree j - i monomials in n+1 variables, as morphisms from i to j: the rows of `exponent_labels`.

    Empty for j < i.  Ordered lexicographically by exponent vector.

    >>> [m.exponents for m in monomial_hom_basis(-2, -1, 1)]
    [(0, 1), (1, 0)]
    """
    return [Monomial(i, j, exps) for exps in exponent_labels(j - i, n).tolist()]


def monomial_compose(g: Monomial, f: Monomial) -> Monomial:
    """Composite of f followed by g: exponents add."""
    if g.source != f.target:
        raise ValueError(
            f"monomials not composable: f targets {f.target}, g starts at {g.source}"
        )
    if g.n != f.n:
        raise ValueError("monomials must share a dimension")
    return Monomial(
        f.source, g.target, tuple(a + b for a, b in zip(f.exponents, g.exponents))
    )


def to_monomial(e: HomElement) -> Monomial:
    """The monomial corresponding to a quotient cell morphism.

    Steps b from level i to level j map to exponents
    (j - i + sum(b), -b_1, ..., -b_n).

    >>> to_monomial(HomElement(-2, -1, (-1, 0))).exponents
    (0, 1, 0)
    """
    total = e.target - e.source + sum(e.steps)
    return Monomial(e.source, e.target, (total,) + tuple(-b for b in e.steps))


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(-2, -1, (1,))  # too few variables
    with pytest.raises(ValueError):
        Monomial(-2, -1, (-1, 2))
    with pytest.raises(ValueError):
        Monomial(-2, -1, (1, 1))  # degree 2 but target - source = 1
    m = Monomial(-3, -1, (1, 1, 0))
    assert m.n == 2
    assert m.exponents == (1, 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_basis_counts(n):
    for i in range(-n - 1, 0):
        for j in range(-n - 1, 0):
            basis = monomial_hom_basis(i, j, n)
            if j < i:
                assert basis == []
            else:
                assert len(basis) == math.comb(j - i + n, n)
                # all degree vectors distinct and correctly graded
                assert len({m.exponents for m in basis}) == len(basis)
                assert all(sum(m.exponents) == j - i for m in basis)


def test_monomial_basis_order():
    exps = [m.exponents for m in monomial_hom_basis(-3, -1, 1)]
    assert exps == [(0, 2), (1, 1), (2, 0)]
    assert [m.exponents for m in monomial_hom_basis(-2, -1, 1)] == [(0, 1), (1, 0)]


def test_monomial_compose():
    f = Monomial(-3, -2, (1, 0, 0))
    g = Monomial(-2, -1, (0, 0, 1))
    gf = monomial_compose(g, f)
    assert gf == Monomial(-3, -1, (1, 0, 1))
    with pytest.raises(ValueError):
        monomial_compose(f, g)


def test_to_monomial_examples():
    assert to_monomial(HomElement(-2, -1, (-1, 0))).exponents == (0, 1, 0)
    assert to_monomial(HomElement(-2, -1, (0, 0))).exponents == (1, 0, 0)
    assert to_monomial(HomElement(-3, -1, (-1, -1))).exponents == (0, 1, 1)
    # identities map to the constant monomial
    assert to_monomial(HomElement(-2, -2, (0, 0, 0))).exponents == (0, 0, 0, 0)


def test_to_monomial_is_homomorphism_spot():
    f = HomElement(-3, -2, (0, -1))
    g = HomElement(-2, -1, (-1, 0))
    lhs = to_monomial(compose(g, f))
    rhs = monomial_compose(to_monomial(g), to_monomial(f))
    assert lhs == rhs


def test_euler_pairing_values():
    assert bundles.euler_pairing(-2, -1, 1) == 2
    assert bundles.euler_pairing(-2, -1, 2) == 3
    assert bundles.euler_pairing(-3, -1, 2) == 6
    assert bundles.euler_pairing(-1, -1, 5) == 1
    with pytest.raises(ValueError):
        bundles.euler_pairing(-1, -2, 2)


def test_line_bundle_quiver_structure():
    q = bundles.line_bundle_quiver(2)
    assert q.levels == (-3, -2, -1)
    assert q.dims()[(-3, -1)] == 6
    # composition closes within the tabulated bases
    for i, j, k, f, g, gf in q.compositions():
        assert gf in q.hom_bases[(i, k)].tolist()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_equivalence_passes(n):
    rep = bundles.verify_equivalence(n)
    assert rep.passed
    levels = n + 1
    assert rep.parameters["pairs_checked"] == levels * levels
    total_elements = sum(
        math.comb(j - i + n, n)
        for i in range(-n - 1, 0)
        for j in range(i, 0)
    )
    assert rep.parameters["elements_checked"] == total_elements
    total_compositions = sum(
        math.comb(j - i + n, n) * math.comb(k - j + n, n)
        for i in range(-n - 1, 0)
        for j in range(i, 0)
        for k in range(j, 0)
    )
    assert rep.parameters["compositions_checked"] == total_compositions
    assert rep.witness is None


def _reference_verify_equivalence(n, quiver):
    """The per-element composition check: one `to_monomial` per composite.

    The same bijection check as `verify_equivalence`, then a walk of
    `quiver.compositions()` that rebuilds g∘f, f and g as `HomElement`s from
    their labels and block levels, and compares the composite's monomial with
    the product of the monomials of f and g.  A label outside its hom space
    has no monomial, so it fails the bijection check.
    """
    compositions_checked = 0
    witness = None
    for i in quiver.levels:
        for j in quiver.levels:
            cell_side = quiver.hom(i, j)
            if j < i:
                if len(cell_side):
                    witness = witness or {"kind": "backward_hom", "i": i, "j": j}
                continue
            bundle_side = monomial_hom_basis(i, j, n)
            expected = bundles.euler_pairing(i, j, n)
            try:
                images = {
                    to_monomial(HomElement(i, j, e)).exponents
                    for e in cell_side.tolist()
                }
            except ValueError:
                images = None
            if (
                images is None
                or len(cell_side) != expected
                or len(bundle_side) != expected
                or len(images) != len(cell_side)
                or images != {m.exponents for m in bundle_side}
            ):
                witness = witness or {
                    "kind": "bijection",
                    "i": i,
                    "j": j,
                    "cell_dim": len(cell_side),
                    "bundle_dim": len(bundle_side),
                    "expected": expected,
                }
    try:
        for i, j, k, f, g, gf in quiver.compositions():
            gf = HomElement(i, k, gf)
            f, g = HomElement(i, j, f), HomElement(j, k, g)
            compositions_checked += 1
            image = monomial_compose(to_monomial(g), to_monomial(f))
            if to_monomial(gf) != image:
                witness = witness or {
                    "kind": "composition",
                    "f": {"source": f.source, "target": f.target, "steps": list(f.steps)},
                    "g": {"source": g.source, "target": g.target, "steps": list(g.steps)},
                    "table_result": list(gf.steps),
                    "expected_exponents": list(image.exponents),
                }
    except ValueError as exc:
        witness = witness or {"kind": "composition", "error": str(exc)}
    elements = sum(len(b) for (i, j), b in quiver.hom_bases.items() if i <= j)
    return witness is None, witness, elements, compositions_checked


def _assert_matches_reference(n, quiver):
    rep = bundles.verify_equivalence(n, quiver)
    ok, witness, elements, compositions = _reference_verify_equivalence(n, quiver)
    assert rep.passed == ok
    assert rep.witness == witness
    assert rep.parameters == {
        "n": n,
        "pairs_checked": (n + 1) ** 2,
        "elements_checked": elements,
        "compositions_checked": compositions,
    }
    return rep


def _planted(rule, fs, gs, f, g, label):
    """The block rule `rule`, except that the composite of rows f and g has `label`.

    f is a row of `fs` and g a row of `gs`.  A block is known by its bases:
    `fs` or a row chunk of it, and `gs` or a slice of its rows.
    """
    def planted(block_gs, block_fs):
        table = rule(block_gs, block_fs)
        if (block_gs is gs or block_gs.base is gs) and (block_fs is fs or block_fs.base is fs):
            rows, cols = (block_fs == f).all(axis=1), (block_gs == g).all(axis=1)
            table[np.ix_(rows, cols)] = label
        return table
    return planted


def _own(q, *keys):
    """Give each key its own copy of its basis, so that `_planted` corrupts that key's block alone.

    The keys of one degree share one array, and `_planted` knows a block by
    its arrays.
    """
    for key in keys:
        q.hom_bases[key] = q.hom_bases[key].copy()
    return [q.hom_bases[key] for key in keys]


def _counting(calls, fn):
    def wrapped(gs, fs):
        calls.append((gs, fs))
        return fn(gs, fs)
    return wrapped


def _covered(calls):
    return sum(len(fs) * len(gs) for gs, fs in calls)


def _block_keys(q):
    """The composite count of each distinct block key (f array, g array, j - i, k - j) of `q`."""
    return {(id(fs), id(gs), j - i, k - j): len(fs) * len(gs) for i, j, k, fs, gs in q.blocks()}


def _whole(a):
    """The array that `a` is a chunk of, or `a` itself."""
    return a if a.base is None else a.base


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quivers_compose_only_when_walked(n, monkeypatch):
    """Building a quiver composes nothing; verify calls the rule once per distinct block.

    A block's key is its two arrays and its degrees j - i and k - j.  At
    n <= 3 every block fits one chunk and every degree has one array, so the
    calls are one per key, and `compositions_checked` still counts every
    composite of every block: sum C(j-i+n, n) * C(k-j+n, n).
    """
    calls = []
    monkeypatch.setattr(cells, "compose_block", _counting(calls, cells.compose_block))
    q = cells.quotient_quiver(n)
    bundles.line_bundle_quiver(n)
    assert calls == []
    rep = bundles.verify_equivalence(n, q)
    assert rep.passed
    keys = _block_keys(q)
    assert sorted((id(_whole(fs)), id(_whole(gs))) for gs, fs in calls) == sorted(key[:2] for key in keys)
    assert _covered(calls) == sum(keys.values())
    closed_form = sum(
        math.comb(j - i + n, n) * math.comb(k - j + n, n)
        for i in range(-n - 1, 0)
        for j in range(i, 0)
        for k in range(j, 0)
    )
    assert rep.parameters["compositions_checked"] == closed_form > _covered(calls)
    calls.clear()
    rep = bundles.verify_equivalence(n)
    assert len(calls) == len(keys)
    assert _covered(calls) == sum(keys.values())
    assert rep.parameters["compositions_checked"] == closed_form


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_composes_every_block_of_unshared_bases(n):
    """With its own array at every key, no two blocks share a key, so the calls cover every composite."""
    q = cells.quotient_quiver(n)
    _own(q, *q.hom_bases)
    calls = []
    q.compose = _counting(calls, q.compose)
    rep = bundles.verify_equivalence(n, q)
    assert rep.passed
    assert _covered(calls) == rep.parameters["compositions_checked"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_equivalence_matches_reference(n):
    rep = _assert_matches_reference(n, cells.quotient_quiver(n))
    assert rep.passed


@pytest.mark.parametrize(
    "i,j,k", [(-4, -4, -3), (-4, -3, -1), (-4, -2, -2), (-3, -2, -1), (-2, -1, -1)]
)
@pytest.mark.parametrize("inside", [True, False])
def test_verify_equivalence_matches_reference_on_planted_composite(i, j, k, inside):
    """One wrong composite, in hom(i, k) or outside it, gives the reference's report."""
    q = cells.quotient_quiver(3)
    fs, gs = _own(q, (i, j), (j, k))
    f, g = fs[-1], gs[len(gs) // 2]
    honest = (f + g).tolist()
    if inside:
        label = next(e for e in q.hom_bases[(i, k)].tolist() if e != honest)
    else:
        label = honest[:-1] + [1]
    q.compose = _planted(q.compose, fs, gs, f, g, label)
    rep = _assert_matches_reference(3, q)
    assert not rep.passed
    assert rep.witness["kind"] == "composition"
    assert ("table_result" in rep.witness) == inside


def test_planted_composite_is_reported_at_its_own_levels():
    """At n = 3 the blocks (-4, -3, -2) and (-3, -2, -1) hold the same array twice.

    A composite planted on those shared arrays is met first at (-4, -3, -2);
    planted on the copies that `_own` gives (-3, -2) and (-2, -1), it is
    reported at those levels.
    """
    q = cells.quotient_quiver(3)
    honest = q.compose
    shared = q.hom_bases[(-3, -2)]
    assert q.hom_bases[(-4, -3)] is shared is q.hom_bases[(-2, -1)]
    f, g = shared[0], shared[1]
    label = next(e for e in q.hom_bases[(-3, -1)].tolist() if e != (f + g).tolist())

    def planted_levels(fs, gs):
        q.compose = _planted(honest, fs, gs, f, g, label)
        witness = _assert_matches_reference(3, q).witness
        assert witness["table_result"] == label
        return witness["f"]["source"], witness["f"]["target"], witness["g"]["target"]

    assert planted_levels(shared, shared) == (-4, -3, -2)
    assert planted_levels(*_own(q, (-3, -2), (-2, -1))) == (-3, -2, -1)


def test_blocks_that_failed_are_composed_again():
    """A composite planted on the shared n = 3 arrays fails each block of their key, and each is composed.

    The blocks (-4, -3, -2) and (-3, -2, -1) share the key (degree-1 array,
    degree-1 array, 1, 1).  With the honest rule the second block reuses the
    first's result; with the planted one it is composed again.
    """
    q = cells.quotient_quiver(3)
    shared = q.hom_bases[(-3, -2)]
    f, g = shared[0], shared[1]
    label = next(e for e in q.hom_bases[(-3, -1)].tolist() if e != (f + g).tolist())
    for rule, blocks in ((q.compose, 1), (_planted(q.compose, shared, shared, f, g, label), 2)):
        calls = []
        q.compose = _counting(calls, rule)
        bundles.verify_equivalence(3, q)
        walked = [(gs, fs) for gs, fs in calls if _whole(fs) is shared and _whole(gs) is shared]
        assert _covered(walked) == blocks * len(shared) ** 2
        _assert_matches_reference(3, q)


def test_one_array_at_two_degrees_is_composed_at_each():
    """The degree-1 array at the degree-2 key (-4, -2) keeps its id, and its blocks there are walked apart.

    Only the bijection fails; the blocks (-4, -3, -2) and (-4, -2, -1) hold
    the same two arrays at the degrees (1, 1) and (2, 1), and each is composed.
    """
    q = cells.quotient_quiver(3)
    q.hom_bases[(-4, -2)] = q.hom_bases[(-4, -3)]
    calls = []
    q.compose = _counting(calls, q.compose)
    bundles.verify_equivalence(3, q)
    keys = _block_keys(q)
    assert len(calls) == len(keys) > len({key[:2] for key in keys})
    assert _covered(calls) == sum(keys.values())
    assert _assert_matches_reference(3, q).witness["kind"] == "bijection"


def test_one_array_at_two_degrees_is_checked_at_each():
    """The degree-2 array at the degree-1 key (-3, -2) has composites outside hom(-3, -2).

    With (-4, -3) moved last in `hom_bases`, the unit and that array meet
    first in the block (-4, -4, -2), at the degrees (0, 2), and pass; they
    meet again in (-3, -3, -2), at (0, 1), which is walked on its own and
    ends the walk where the reference does.
    """
    q = cells.quotient_quiver(3)
    q.hom_bases[(-3, -2)] = q.hom_bases[(-4, -2)]
    q.hom_bases[(-4, -3)] = q.hom_bases.pop((-4, -3))
    rep = _assert_matches_reference(3, q)
    assert rep.witness["kind"] == "bijection"
    assert rep.parameters["compositions_checked"] < sum(len(fs) * len(gs) for *_, fs, gs in q.blocks())


@pytest.mark.parametrize("corruption", ["backward", "missing", "wide", "foreign", "outside_row", "late_rule"])
def test_verify_equivalence_matches_reference_on_corrupt_bases(corruption, monkeypatch):
    """Bijection failures and bases that do not compose give the reference's report.

    The last two cases run with a cap of 4 entries, so the block (-3, -2, -1)
    spans six chunks of one f row against two g rows, and each leaves the
    whole-chunk comparison on a later chunk of it.  "outside_row" puts
    [-1, 1] at row 2 of hom(-2, -1): the honest table equals f + g, but
    [-1, 0] + [-1, 1] lies outside hom(-3, -1) and ends the walk, though
    [0, -1] + [-1, 1] lies in it.  "late_rule" makes the rule wrong only in
    the last composite of the third chunk.
    """
    q = cells.quotient_quiver(2)
    if corruption in ("outside_row", "late_rule"):
        monkeypatch.setattr(cells, "CHUNK_ENTRIES", 4)
    if corruption == "outside_row":
        fs, gs = _own(q, (-3, -2), (-2, -1))
        gs[2] = [-1, 1]
        assert 2 >= list(cells.block_chunks(fs, gs))[0][1].stop  # the row lies beyond the first chunk
        assert [-1, 0] in q.hom_bases[(-3, -1)].tolist()  # [0, -1] + [-1, 1]
        rep = _assert_matches_reference(2, q)
        assert rep.witness["kind"] == "bijection"
        assert rep.parameters["compositions_checked"] < sum(len(fs) * len(gs) for *_, fs, gs in q.blocks())
        return
    if corruption == "late_rule":
        fs, gs = _own(q, (-3, -2), (-2, -1))
        rows, cols = list(cells.block_chunks(fs, gs))[2]
        f, g = fs[rows][-1], gs[cols][-1]
        label = next(e for e in q.hom_bases[(-3, -1)].tolist() if e != (f + g).tolist())
        q.compose = _planted(q.compose, fs, gs, f, g, label)
        rep = _assert_matches_reference(2, q)
        assert (rep.witness["f"]["steps"], rep.witness["g"]["steps"], rep.witness["table_result"]) == (f.tolist(), g.tolist(), label)
        return
    if corruption == "backward":
        q.hom_bases[(-1, -2)] = np.array([[0, 0]], dtype=np.int64)
    elif corruption == "missing":
        q.hom_bases[(-3, -1)] = q.hom_bases[(-3, -1)][1:]
    elif corruption == "wide":
        q.hom_bases[(-1, -1)] = np.zeros((1, 3), dtype=np.int64)
    else:
        q.hom_bases[(-3, -2)] = np.concatenate(
            [q.hom_bases[(-3, -2)][:-1], q.hom_bases[(-3, -1)][:1]]
        )
    assert not _assert_matches_reference(2, q).passed
    if corruption == "wide":  # the walk stopped where the block rule refused the unit
        with pytest.raises(ValueError, match="^morphisms must share a dimension$"):
            list(q.compositions())


@pytest.mark.parametrize("entries", [1 << 18, 5])
def test_exponent_labels_rank_in_order(entries, monkeypatch):
    """Read as images, the rows of `exponent_labels(d, n)` rank to 0, ..., binomial(d + n, n) - 1 in order.

    The image of a label b is (d + sum(b), -b_1, ..., -b_n), so the label of
    an exponent row e is -e[1:]; a cap of 5 entries ranks a few rows at a time.
    """
    monkeypatch.setattr(cells, "CHUNK_ENTRIES", entries)
    for n in range(1, 7):
        for d in range(7):
            images = exponent_labels(d, n)
            assert bundles._image_ranks(-images[:, 1:], d).tolist() == list(range(math.comb(d + n, n)))


@pytest.mark.parametrize("mutation", ["duplicate", "positive", "below", "wide"])
def test_rank_check_matches_reference_on_mutated_labels(mutation):
    """A duplicated row, a positive entry, a row summing below -d or a wide label fails the rank check as the reference does.

    Each mutates its own copy of hom(-4, -2) at n = 3 (degree 2, 10 rows).
    The walk first meets that copy in the block (-4, -4, -2), whose
    composites are its rows: a row outside hom(-4, -2) ends the walk there,
    a wide label ends it where the rule refuses the unit, and a duplicated
    row composes like the row it copies.
    """
    q = cells.quotient_quiver(3)
    (labels,) = _own(q, (-4, -2))
    if mutation == "duplicate":
        labels[1] = labels[0]
    elif mutation == "positive":
        labels[3] = [0, -1, 1]
    elif mutation == "below":
        labels[3] = [-3, 0, 0]
    else:
        q.hom_bases[(-4, -2)] = np.pad(labels, ((0, 0), (0, 1)))
    rep = _assert_matches_reference(3, q)
    assert rep.witness == {"kind": "bijection", "i": -4, "j": -2, "cell_dim": 10, "bundle_dim": 10, "expected": 10}
    closed_form = sum(len(fs) * len(gs) for *_, fs, gs in cells.quotient_quiver(3).blocks())
    assert (rep.parameters["compositions_checked"] == closed_form) == (mutation == "duplicate")


def test_verify_equivalence_matches_reference_in_one_row_chunks(monkeypatch):
    """Chunks of one f row, against all of g or against slices of g, give the reference's report.

    At n = 4 a label has 4 entries: a cap of 1 entry runs every pair alone,
    and a cap of 10 runs two f rows against the unit and one f row against
    two g rows of every larger basis.  The chunks keep the whole blocks'
    order, f outer and g inner: `compositions()` lists the same entries, and
    of two planted composites the first in that order is the witness.
    """
    whole = list(cells.quotient_quiver(4).compositions())
    for entries in (1, 10):
        monkeypatch.setattr(cells, "CHUNK_ENTRIES", entries)
        calls = []
        q = cells.quotient_quiver(4)
        assert list(q.compositions()) == whole
        q.compose = _counting(calls, q.compose)
        assert _assert_matches_reference(4, q).passed
        assert calls and all(len(fs) * gs.size <= max(entries, 4) for gs, fs in calls)
        assert any(len(gs) < len(_whole(gs)) for gs, fs in calls)
        fs, gs = _own(q, (-5, -3), (-3, -1))
        f, g = fs[7], gs[3]
        honest = (f + g).tolist()
        replacement = next(e for e in q.hom_bases[(-5, -1)].tolist() if e != honest)
        q.compose = _planted(q.compose, fs, gs, fs[8], gs[0], replacement)
        q.compose = _planted(q.compose, fs, gs, f, g, replacement)
        rep = _assert_matches_reference(4, q)
        assert rep.witness["f"]["steps"] == f.tolist()
        assert rep.witness["g"]["steps"] == g.tolist()


@pytest.mark.parametrize(
    "label,error",
    [
        ((1, -1), "step entries must be nonpositive: (1, -1)"),
        ((-3, 0), "sum of steps -3 below source - target = -2"),
    ],
)
def test_verify_equivalence_rejects_composite_outside_hom(label, error):
    """A composite outside hom(i, k) fails as HomElement would, where the walk reaches it."""
    q = cells.quotient_quiver(2)
    fs, gs = _own(q, (-3, -2), (-2, -1))
    f, g = fs[1], gs[2]
    before = next(
        index
        for index, (*ijk, f2, g2, _) in enumerate(q.compositions())
        if (ijk, f2, g2) == ([-3, -2, -1], f.tolist(), g.tolist())
    )
    q.compose = _planted(q.compose, fs, gs, f, g, label)
    rep = _assert_matches_reference(2, q)
    assert not rep.passed
    assert rep.witness == {"kind": "composition", "error": error}
    assert rep.parameters["compositions_checked"] == before


def test_verify_equivalence_rejects_corrupt_composition():
    q = cells.quotient_quiver(2)
    (f, g, honest) = next(
        (f, g, gf)
        for (i, j, k, f, g, gf) in q.compositions()
        if (i, j, k) == (-3, -2, -1)
    )
    replacement = next(
        e for e in q.hom_bases[(-3, -1)].tolist() if e != honest
    )
    q.compose = _planted(q.compose, *_own(q, (-3, -2), (-2, -1)), f, g, replacement)
    rep = bundles.verify_equivalence(2, q)
    assert not rep.passed
    assert rep.witness["kind"] == "composition"
    assert rep.witness["table_result"] == replacement


def test_verify_equivalence_rejects_backward_hom():
    q = cells.quotient_quiver(1)
    q.hom_bases[(-1, -2)] = np.array([[0]], dtype=np.int64)
    rep = bundles.verify_equivalence(1, q)
    assert not rep.passed
    assert rep.witness["kind"] == "backward_hom"


def test_verify_equivalence_reports_the_first_failure_of_the_walk():
    """The walk meets the pairs (i, j) over the levels; a later backward hom keeps the earlier witness."""
    q = cells.quotient_quiver(2)
    q.hom_bases[(-1, -3)] = q.hom_bases[(-1, -2)] = np.array([[0, 0]], dtype=np.int64)
    assert _assert_matches_reference(2, q).witness == {"kind": "backward_hom", "i": -1, "j": -3}
    q = cells.quotient_quiver(2)
    q.hom_bases[(-3, -2)] = q.hom_bases[(-3, -2)][1:]
    q.hom_bases[(-1, -3)] = np.array([[0, 0]], dtype=np.int64)
    assert _assert_matches_reference(2, q).witness == {
        "kind": "bijection", "i": -3, "j": -2, "cell_dim": 2, "bundle_dim": 3, "expected": 3,
    }


def test_verify_equivalence_rejects_wide_unit():
    """A unit label one entry wider has no monomial and composes with nothing.

    The bijection check fails first, so it gives the witness; the block walk
    stops at the first block that holds the unit, after the 3 composites of
    the blocks (-2, -2, -2) and (-2, -2, -1).
    """
    q = cells.quotient_quiver(1)
    q.hom_bases[(-1, -1)] = np.zeros((1, 2), dtype=np.int64)
    rep = bundles.verify_equivalence(1, q)
    assert not rep.passed
    assert rep.witness == {
        "kind": "bijection", "i": -1, "j": -1, "cell_dim": 1, "bundle_dim": 1, "expected": 1
    }
    assert rep.parameters["compositions_checked"] == 3
    with pytest.raises(ValueError, match="^morphisms must share a dimension$"):
        list(q.compositions())


def test_verify_equivalence_rejects_missing_element():
    q = cells.quotient_quiver(1)
    q.hom_bases[(-2, -1)] = q.hom_bases[(-2, -1)][:1]
    rep = bundles.verify_equivalence(1, q)
    assert not rep.passed
    assert rep.witness["kind"] == "bijection"
    assert rep.witness["cell_dim"] == 1
    assert rep.witness["expected"] == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_monomial_hom_basis_is_every_exponent_vector_in_order(n):
    """The single-element bases and the quiver's shared arrays hold every exponent vector of their degree, in order."""
    q = bundles.line_bundle_quiver(n)
    levels = range(-n - 1, 0)
    every = {d: [list(e) for e in itertools.product(range(d + 1), repeat=n + 1) if sum(e) == d] for d in range(n + 1)}
    assert list(q.hom_bases) == [(i, j) for i in levels for j in levels if i <= j]
    for i in levels:
        for j in levels:
            assert [list(m.exponents) for m in monomial_hom_basis(i, j, n)] == every.get(j - i, [])
            if i <= j:
                assert q.hom_bases[(i, j)].dtype == "int64"
                assert q.hom_bases[(i, j)].tolist() == every[j - i]
