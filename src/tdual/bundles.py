"""Monomial hom spaces between line bundles, and the comparison functor.

Morphisms from the line bundle of level i to the one of level j on projective
n-space are the degree j - i monomials in the n+1 homogeneous coordinates
(none for j < i); they compose by multiplying, i.e. adding exponent vectors,
and the dimension of each hom space is the binomial coefficient
binomial(j - i + n, n).

The cell quiver of :mod:`tdual.cells` maps onto this monomial quiver: the
quotient morphism with multi-index b from level i to level j corresponds to
the monomial with exponents

    (j - i + sum(b), -b_1, ..., -b_n),

which is degree j - i with nonnegative entries.  `verify_equivalence` checks
exhaustively that this assignment is a bijection on every hom space and turns
composition of multi-indices into multiplication of monomials.  The assignment
is affine in b, so both checks run on the quiver's int64 label arrays.  The
bijection check ranks each label's image among the exponent vectors of its
degree, in row chunks, and counts the ranks.  The composition check runs
block by block (i <= j <= k, levels from the keys): it takes each block's
composites from the quiver's block rule, in chunks bounded on both bases,
once per distinct pair of arrays and degrees.  A chunk whose table equals
f + g as a whole, from bases whose labels all lie in their hom spaces, passes
in one comparison; any other chunk is checked composite by composite.

The monomial bases have their own generator, `exponent_labels`, independent
of the cell side's: one int64 array of exponent rows per degree d = j - i,
which `line_bundle_quiver` shares, read-only, among the keys of that degree.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from . import cells
from .cells import Quiver, block_chunks, quotient_quiver, tabulate_quiver
from .report import CheckReport


def exponent_labels(d: int, n: int) -> np.ndarray:
    """Exponent vectors of the degree d monomials in n+1 variables, in lexicographic order.

    An int64 array of shape (binomial(d + n, n), n + 1), empty for d < 0.
    Row r counts the variables of the r-th multiset of size d from the end:
    multisets come in lexicographic order, which is the reverse of their
    exponent vectors' order.

    >>> exponent_labels(2, 1).tolist()
    [[0, 2], [1, 1], [2, 0]]
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if d < 0:
        return np.empty((0, n + 1), dtype=np.int64)
    count = math.comb(d + n, n)
    heads = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(n + 1), d))
    slots = np.fromiter(heads, dtype=np.int64, count=count * d).reshape(count, d)
    slots += np.arange(count)[::-1, None] * (n + 1)
    return np.bincount(slots.ravel(), minlength=count * (n + 1)).reshape(count, n + 1)


def _row_chunks(labels: np.ndarray) -> Iterator[np.ndarray]:
    """Row slices of `labels` holding at most about CHUNK_ENTRIES entries each."""
    step = max(1, cells.CHUNK_ENTRIES // max(1, labels.shape[1]))
    return (labels[start : start + step] for start in range(0, len(labels), step))


def _inside(labels: np.ndarray, d: int) -> bool:
    """Whether every row b of `labels` lies in a hom space of degree d: b <= 0 and sum(b) >= -d."""
    return all((rows <= 0).all() and (rows.sum(axis=-1) >= -d).all() for rows in _row_chunks(labels))


def _image_ranks(labels: np.ndarray, d: int) -> np.ndarray:
    """The rank of each row's image among the `exponent_labels(d, n)` rows, computed from the label alone.

    Every row b of the n-column array `labels` must lie in the hom space of
    degree d (`_inside`).  Its image (d + sum(b), -b_1, ..., -b_n) is read
    through the suffix sums t_l = -(b_l + ... + b_n), which satisfy
    d >= t_1 >= ... >= t_n >= 0; the image's lexicographic rank among the
    binomial(d + n, n) exponent vectors of degree d is
    binomial(d + n, n) - 1 - sum_l binomial(t_l + n - l, n - l + 1).

    >>> _image_ranks(-exponent_labels(2, 1)[:, 1:], 2).tolist()
    [0, 1, 2]
    """
    n = labels.shape[1]
    count = math.comb(d + n, n)
    weights = np.array([[math.comb(t + n - l, n - l + 1) for t in range(d + 1)] for l in range(1, n + 1)], dtype=np.int64)
    ranks = np.empty(len(labels), dtype=np.int64)
    start = 0
    for rows in _row_chunks(labels):
        suffix = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]  # b_l + ... + b_n, that is -t_l
        ranks[start : start + len(rows)] = count - 1 - weights[np.arange(n), -suffix].sum(axis=1)
        start += len(rows)
    return ranks


def euler_pairing(i: int, j: int, n: int) -> int:
    """Dimension of the hom space from level i to level j: binomial(j-i+n, n).

    Requires j >= i (backward hom spaces vanish rather than pair).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if j < i:
        raise ValueError(f"euler_pairing requires j >= i, got i={i}, j={j}")
    return math.comb(j - i + n, n)


def line_bundle_quiver(n: int) -> Quiver:
    """The monomial quiver on levels -n-1, ..., -1.

    Hom bases come from `exponent_labels`; the block rule adds exponents:
    monomials of hom(i, j) and hom(j, k) multiply into hom(i, k).
    """
    return tabulate_quiver(n, exponent_labels)


def verify_equivalence(n: int, quiver: Quiver | None = None) -> CheckReport:
    """Exhaustively compare the cell quiver against the monomial quiver.

    Checks, for every pair of levels, that the monomial assignment is a
    bijection from the cell hom basis onto the monomial basis (with both
    dimensions equal to the binomial count of `exponent_labels(j - i, n)`),
    and that every composite of the cell quiver, taken block by block from
    its rule `quiver.compose`, lies in its hom space and is sent to the
    product of the images.  The bijection holds when the labels are n wide,
    binomial(j - i + n, n) in number and all lie in hom(i, j), and their
    images' ranks (`_image_ranks`) hit each of 0, ..., binomial - 1 once.
    Whether an array's labels all lie in their hom space, and whether it is
    a bijection, is computed once per distinct (cell array, degree), since
    the keys of one degree share their array, and only a passing result is
    reused.  An image's exponents are the negated label, so the image of
    g∘f is the sum of the images exactly when its label is f + g.  A block's
    check depends only on its two arrays, its degrees j - i and k - j and
    the rule, a pure function of the arrays: it runs in `block_chunks` on
    the first block of each such key, and a later block of a key whose first
    block passed in full counts its composites without composing them.  f + g
    of labels in hom(i, j) and hom(j, k) lies in hom(i, k), so when both
    arrays lie in their hom spaces a chunk whose table equals f + g as a
    whole passes with that one comparison; every other chunk is checked
    composite by composite.  The witness is the first failure of the walk:
    the pairs (i, j) over the levels, then the blocks in `hom_bases` order,
    f outer and g inner; a composite outside its hom space ends the walk
    there.  A prebuilt (possibly corrupted) cell quiver may be passed in; by
    default the canonical one for `n` is built.
    """
    if quiver is None:
        quiver = quotient_quiver(n)
    pairs_checked = 0
    elements_checked = 0
    compositions_checked = 0
    witness = None
    levels = quiver.levels
    inside = {}  # (id, degree) of each cell array whose labels all lie in their hom space -> that array
    bijective = {}  # (id, degree) of each cell array that passed -> that array, which keeps its id unique
    for i in levels:
        for j in levels:
            cell_side = quiver.hom(i, j)
            pairs_checked += 1
            if j < i:
                if len(cell_side):
                    witness = witness or {"kind": "backward_hom", "i": i, "j": j}
                continue
            elements_checked += len(cell_side)
            key = id(cell_side), j - i
            if key in bijective:
                continue
            if key not in inside and _inside(cell_side, j - i):
                inside[key] = cell_side
            expected = euler_pairing(i, j, n)
            if (
                key in inside
                and cell_side.shape == (expected, n)
                and (np.bincount(_image_ranks(cell_side, j - i), minlength=expected) == 1).all()
            ):
                bijective[key] = cell_side
            else:
                witness = witness or {
                    "kind": "bijection",
                    "i": i,
                    "j": j,
                    "cell_dim": len(cell_side),
                    "bundle_dim": expected,
                    "expected": expected,
                }
    passed = set()  # (id(fs), id(gs), j - i, k - j) of blocks that passed; the quiver keeps the ids unique
    try:
        for i, j, k, fs, gs in quiver.blocks():
            key = (id(fs), id(gs), j - i, k - j)
            if key in passed:
                compositions_checked += len(fs) * len(gs)
                continue
            clean = True
            whole = (id(fs), j - i) in inside and (id(gs), k - j) in inside  # every f + g then lies in hom(i, k)
            for rows, cols in block_chunks(fs, gs):
                chunk, g_chunk = fs[rows], gs[cols]
                table = quiver.compose(g_chunk, chunk)
                sums = np.add(chunk[:, None], g_chunk[None])
                if whole and np.array_equal(table, sums):
                    compositions_checked += len(chunk) * len(g_chunk)
                    continue
                # Composites outside hom(i, k) (an entry above 0, or a sum below i - k) end the walk.
                outside = ((table > 0).any(axis=-1) | (table.sum(axis=-1) < i - k)).ravel()
                # The image (k - i + sum, -steps) of g∘f is the sum of the images exactly when
                # its label is f + g: the exponents are the negated labels, and the degrees then add.
                wrong = (table != sums).any(axis=-1).ravel()
                stop = int(outside.argmax()) if outside.any() else outside.size
                compositions_checked += stop
                failures = np.flatnonzero(wrong[:stop])
                if failures.size:
                    clean = False
                    r, c = divmod(int(failures[0]), len(g_chunk))
                    f, g = chunk[r].tolist(), g_chunk[c].tolist()
                    witness = witness or {
                        "kind": "composition",
                        "f": {"source": i, "target": j, "steps": f},
                        "g": {"source": j, "target": k, "steps": g},
                        "table_result": table[r, c].tolist(),
                        "expected_exponents": [k - i + sum(f) + sum(g), *(-a - b for a, b in zip(f, g))],
                    }
                if stop < outside.size:
                    steps = tuple(table[divmod(stop, len(g_chunk))].tolist())
                    if any(v > 0 for v in steps):
                        raise ValueError(f"step entries must be nonpositive: {steps}")
                    raise ValueError(f"sum of steps {sum(steps)} below source - target = {i - k}")
                del table, sums  # free this chunk's tables before the next ones are built
            if clean:
                passed.add(key)
    except ValueError as exc:  # a composite outside its hom space, or a basis that does not compose
        witness = witness or {"kind": "composition", "error": str(exc)}
    return CheckReport(
        check="equivalence.quiver",
        parameters={
            "n": n,
            "pairs_checked": pairs_checked,
            "elements_checked": elements_checked,
            "compositions_checked": compositions_checked,
        },
        max_deviation=None,
        witness=witness,
        passed=witness is None,
    )
