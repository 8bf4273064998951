"""Tests for monomial hom spaces and the quiver comparison."""
from __future__ import annotations

import itertools
import math

import pytest

from tdual import bundles, cells
from tdual.bundles import Monomial
from tdual.cells import HomElement


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(-2, -1, (1,))  # too few variables
    with pytest.raises(ValueError):
        Monomial(-2, -1, (-1, 2))
    with pytest.raises(ValueError):
        Monomial(-2, -1, (1, 1))  # degree 2 but target - source = 1
    m = Monomial(-3, -1, (1, 1, 0))
    assert m.n == 2
    assert m.label == (1, 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_basis_counts(n):
    for i in range(-n - 1, 0):
        for j in range(-n - 1, 0):
            basis = bundles.monomial_hom_basis(i, j, n)
            if j < i:
                assert basis == []
            else:
                assert len(basis) == math.comb(j - i + n, n)
                # all degree vectors distinct and correctly graded
                assert len({m.exponents for m in basis}) == len(basis)
                assert all(sum(m.exponents) == j - i for m in basis)


def test_monomial_basis_order():
    exps = [m.exponents for m in bundles.monomial_hom_basis(-3, -1, 1)]
    assert exps == [(0, 2), (1, 1), (2, 0)]


def test_monomial_compose():
    f = Monomial(-3, -2, (1, 0, 0))
    g = Monomial(-2, -1, (0, 0, 1))
    gf = bundles.monomial_compose(g, f)
    assert gf == Monomial(-3, -1, (1, 0, 1))
    with pytest.raises(ValueError):
        bundles.monomial_compose(f, g)


def test_to_monomial_examples():
    assert bundles.to_monomial(HomElement(-2, -1, (-1, 0))).exponents == (0, 1, 0)
    assert bundles.to_monomial(HomElement(-2, -1, (0, 0))).exponents == (1, 0, 0)
    assert bundles.to_monomial(HomElement(-3, -1, (-1, -1))).exponents == (0, 1, 1)
    # identities map to the constant monomial
    assert bundles.to_monomial(cells.identity_hom(-2, 3)).exponents == (0, 0, 0, 0)


def test_to_monomial_is_homomorphism_spot():
    f = HomElement(-3, -2, (0, -1))
    g = HomElement(-2, -1, (-1, 0))
    lhs = bundles.to_monomial(cells.compose(g, f))
    rhs = bundles.monomial_compose(bundles.to_monomial(g), bundles.to_monomial(f))
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
    for g, f, gf in q.compositions():
        assert gf in q.hom_bases[(f.source, g.target)]


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


def _counting(calls, fn):
    def wrapped(g, f):
        calls.append((g, f))
        return fn(g, f)
    return wrapped


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quivers_compose_only_when_walked(n, monkeypatch):
    """Building a quiver composes nothing; verify composes once per composite."""
    cell_calls, bundle_calls = [], []
    monkeypatch.setattr(cells, "compose", _counting(cell_calls, cells.compose))
    monkeypatch.setattr(
        bundles, "monomial_compose", _counting(bundle_calls, bundles.monomial_compose)
    )
    q = cells.quotient_quiver(n)
    bundles.line_bundle_quiver(n)
    assert cell_calls == [] and bundle_calls == []
    rep = bundles.verify_equivalence(n, q)
    assert rep.passed
    assert len(cell_calls) == rep.parameters["compositions_checked"]
    cell_calls.clear()
    rep = bundles.verify_equivalence(n)
    assert len(cell_calls) == rep.parameters["compositions_checked"]


def test_verify_equivalence_rejects_corrupt_composition():
    q = cells.quotient_quiver(2)
    (g, f, honest) = next(
        (g, f, gf)
        for (g, f, gf) in q.compositions()
        if f.source == -3 and f.target == -2 and g.target == -1
    )
    replacement = next(
        e for e in q.hom_bases[(-3, -1)] if e != honest
    )
    compose = q.compose
    q.compose = lambda g2, f2: replacement if (g2, f2) == (g, f) else compose(g2, f2)
    rep = bundles.verify_equivalence(2, q)
    assert not rep.passed
    assert rep.witness["kind"] == "composition"
    assert rep.witness["table_result"] == list(replacement.steps)


def test_verify_equivalence_rejects_backward_hom():
    q = cells.quotient_quiver(1)
    q.hom_bases[(-1, -2)] = [cells.identity_hom(-1, 1)]
    rep = bundles.verify_equivalence(1, q)
    assert not rep.passed
    assert rep.witness["kind"] == "backward_hom"


def test_verify_equivalence_rejects_misleveled_unit():
    """A unit of the wrong level has the right exponents but composes with nothing."""
    q = cells.quotient_quiver(1)
    q.hom_bases[(-1, -1)] = [cells.identity_hom(-2, 1)]
    rep = bundles.verify_equivalence(1, q)
    assert not rep.passed
    assert rep.witness["kind"] == "composition"


def test_verify_equivalence_rejects_missing_element():
    q = cells.quotient_quiver(1)
    q.hom_bases[(-2, -1)] = q.hom_bases[(-2, -1)][:1]
    rep = bundles.verify_equivalence(1, q)
    assert not rep.passed
    assert rep.witness["kind"] == "bijection"
    assert rep.witness["cell_dim"] == 1
    assert rep.witness["expected"] == 2
