"""Combinatorics of covering-torus cells and their quotient quiver.

The cells of level k in {-n-1, ..., -1} with corner offsets a in
{-n, ..., 0}^n tile the covering torus (R/(n+1)Z)^n; the lattice (Z/(n+1))^n
acts by translating offsets.  Between two cells there is at most one morphism
(the inclusion of the inner cell into the outer one), and after dividing by
the translation action the morphisms from level i to level j are indexed by
multi-indices b with

    b_l <= 0 for all l,    sum_l b_l >= i - j,

recording the offset of the inner cell relative to the outer one.  There are
binomial(j - i + n, n) of these for j >= i and none otherwise; they compose by
adding multi-indices.  The resulting finite quiver, with one object per level,
has one-dimensional endomorphism spaces, no morphisms towards lower levels,
and everything in a single degree.

Multi-index containment arithmetic is exact integer arithmetic throughout.  A
morphism is held only as its label: an int tuple from `hom_from_cells`, or a
row of the int64 label array that a `Quiver` keeps for each hom basis, the
levels only in its key; a `Quiver` composes whole blocks of pairs at once.
Since hom(i, j) depends only on the degree d = j - i, `hom_labels` builds each
degree's labels once, straight into an array, and `tabulate_quiver` shares
that one read-only array among the n + 1 - d keys of its degree.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

CHUNK_ENTRIES = 1 << 18  # cap on the entries of one temporary array in a block walk
PIECE_ITEMS = 128  # cap on the compositions in one piece of the JSON export


@dataclass(frozen=True)
class CellObject:
    """A cell of the covering torus: level `level`, corner offset `offset`.

    The cell is the open region {g : g_l < offset_l, sum (g - offset) > level}
    on (R/(n+1)Z)^n, where n = len(offset).
    """

    level: int
    offset: tuple[int, ...]

    def __post_init__(self) -> None:
        off = tuple(int(v) for v in self.offset)
        n = len(off)
        if n < 1:
            raise ValueError("offset must be nonempty")
        if not (-n - 1 <= self.level <= -1):
            raise ValueError(f"level {self.level} outside {{-n-1, ..., -1}} for n={n}")
        if any(not (-n <= v <= 0) for v in off):
            raise ValueError(f"offset entries must lie in {{-n, ..., 0}}: {off}")
        object.__setattr__(self, "offset", off)

    @property
    def n(self) -> int:
        return len(self.offset)


def offset_window(n: int) -> list[tuple[int, ...]]:
    """One corner offset per translation orbit: the window {-n, ..., 0}^n."""
    return list(itertools.product(range(-n, 1), repeat=n))


def cell_contains(outer: CellObject, inner: CellObject) -> bool:
    """Whether the inner cell sits inside the outer cell on the covering torus.

    >>> cell_contains(CellObject(-2, (0, 0)), CellObject(-1, (0, 0)))
    True
    >>> cell_contains(CellObject(-2, (-1, 0)), CellObject(-1, (0, 0)))
    False
    """
    return hom_from_cells(outer, inner) is not None


def hom_from_cells(outer: CellObject, inner: CellObject) -> tuple[int, ...] | None:
    """The label b' - a of the quotient morphism realized by a containment of cells, or None.

    A lift b' of the inner offset b (b' = b mod n+1) realizes containment iff
    b'_l <= a_l componentwise and sum(b' - a) >= outer.level - inner.level,
    where a is the outer offset.  Only the canonical lift
    b'_l = a_l - ((a_l - b_l) mod (n+1)), with entries in (a_l - n - 1, a_l],
    can succeed: any other lift with b' <= a is lower by at least n+1 in some
    entry, so sum(b' - a) <= -(n+1) < -n <= outer.level - inner.level.  So
    the label, if any, is a row of `hom_labels(inner.level - outer.level, n)`.

    Translating both cells by a common deck element leaves the result
    unchanged, which is what makes the quotient quiver well defined.

    >>> hom_from_cells(CellObject(-2, (-1,)), CellObject(-1, (0,)))
    (-1,)
    """
    if outer.n != inner.n:
        raise ValueError("cells must share a dimension")
    label = tuple(-((a - b) % (outer.n + 1)) for a, b in zip(outer.offset, inner.offset))
    return label if sum(label) >= outer.level - inner.level else None


def hom_labels(d: int, n: int) -> np.ndarray:
    """Labels of a hom space of degree d = j - i: every b <= 0 with sum(b) >= -d, in lexicographic order.

    An int64 array of shape (binomial(d + n, n), n), empty for d < 0.  Each
    label is the run of differences b_l = c_(l-1) - c_l of a nondecreasing
    sequence 0 = c_0 <= c_1 <= ... <= c_n <= d.  Those sequences are the
    first binomial(d + n, n) multisets of size n + 1 from range(d + 1), the
    ones that contain 0, and they come in lexicographic order, which is the
    reverse of their labels' order.  The sequences are read in row chunks of
    about CHUNK_ENTRIES entries, each filling its labels from the end, so
    only the labels are held whole.

    >>> hom_labels(1, 2).tolist()
    [[-1, 0], [0, -1], [0, 0]]
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    count = math.comb(max(d + n, 0), n)
    labels = np.empty((count, n), dtype=np.int64)
    runs = itertools.combinations_with_replacement(range(d + 1), n + 1)
    step = max(1, CHUNK_ENTRIES // (n + 1))
    for stop in range(count, 0, -step):
        rows = min(step, stop)
        chunk = itertools.chain.from_iterable(itertools.islice(runs, rows))
        chunk = np.fromiter(chunk, dtype=np.int64, count=rows * (n + 1)).reshape(rows, n + 1)[::-1]
        np.subtract(chunk[:, :-1], chunk[:, 1:], out=labels[stop - rows : stop])
    return labels


def compose_block(gs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Labels of g∘f for the rows f of `fs` (hom(i, j)) and g of `gs` (hom(j, k)); labels add.

    Both are int64 label arrays, one row per basis element.  Returns an int64
    array of shape (len(fs), len(gs), label length).  This is the compose rule
    of both the cell quiver (multi-indices add) and the line-bundle quiver
    (exponents add).  The levels live in the quiver's keys, so every block
    chains; only labels of different lengths raise ValueError.

    >>> compose_block(np.array([[-1], [0]]), np.array([[-1], [0]])).tolist()
    [[[-2], [-1]], [[-1], [0]]]
    """
    if fs.shape[1] != gs.shape[1]:
        raise ValueError("morphisms must share a dimension")
    return fs[:, None, :] + gs[None, :, :]


def block_chunks(fs: np.ndarray, gs: np.ndarray) -> Iterator[tuple[slice, slice]]:
    """(rows of `fs`, rows of `gs`) slices whose blocks hold at most about CHUNK_ENTRIES label entries.

    `gs` is sliced too when one row of `fs` against all of it exceeds the
    cap; chunks come f outer and g inner, so pairs keep the block's order.
    """
    f_rows = CHUNK_ENTRIES // gs.size
    g_rows = len(gs) if f_rows else max(1, CHUNK_ENTRIES // gs.shape[1])
    f_rows = max(1, f_rows)
    return (
        (slice(f, f + f_rows), slice(g, g + g_rows))
        for f in range(0, len(fs), f_rows)
        for g in range(0, len(gs), g_rows)
    )


@dataclass
class Quiver:
    """A finite graded quiver on levels -n-1, ..., -1 with hom bases and a block compose rule.

    `hom_bases` maps (source_level, target_level) to the basis as an int64
    array of shape (dim, label length), one label per row; the levels live
    only in the key.  `compose(gs, fs)` returns the labels of g after f
    (f first) for whole bases at once, as `compose_block` does; it must be a
    pure function of its two arrays, since `bundles.verify_equivalence`,
    `is_strong_exceptional` and `quiver_json` compose the blocks that share
    their arrays once.  No composite is stored: `compositions()` computes
    them block by block.  All stored morphisms sit in degree 0.
    """

    n: int
    hom_bases: dict
    compose: Callable

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(range(-self.n - 1, 0))

    @property
    def composition(self) -> range:
        """One item per composable basis pair, a sized stand-in for the old table; bench/child.py reads its `len`."""
        return range(sum(len(fs) * len(gs) for *_, fs, gs in self.blocks()))

    def hom(self, i: int, j: int) -> np.ndarray:
        """The stored label array of hom(i, j), or an empty one as wide as the stored labels."""
        basis = self.hom_bases.get((i, j))
        if basis is None:
            width = next((b.shape[1] for b in self.hom_bases.values()), self.n)
            basis = np.empty((0, width), dtype=np.int64)
        return basis

    def dims(self) -> dict[tuple[int, int], int]:
        return {key: len(basis) for key, basis in sorted(self.hom_bases.items())}

    def blocks(self) -> Iterator[tuple[int, int, int, np.ndarray, np.ndarray]]:
        """(i, j, k, hom(i, j), hom(j, k)) per block i <= j <= k of nonempty bases, in key order."""
        for (i, j), fs in self.hom_bases.items():
            for (j2, k), gs in self.hom_bases.items():
                if i <= j == j2 <= k and len(fs) and len(gs):
                    yield i, j, k, fs, gs

    def compositions(self) -> Iterator[tuple]:
        """(i, j, k, f, g, g∘f) per composable basis pair, labels as lists; f is the outer loop."""
        for i, j, k, fs, gs in self.blocks():
            g_labels = gs.tolist()
            for rows, cols in block_chunks(fs, gs):
                chunk = fs[rows]
                for f, labels in zip(chunk.tolist(), self.compose(gs[cols], chunk).tolist()):
                    for g, gf in zip(g_labels[cols], labels):
                        yield i, j, k, f, g, gf


def tabulate_quiver(n: int, labels_fn: Callable) -> Quiver:
    """The quiver on levels -n-1, ..., -1 whose hom(i, j), for i <= j, is `labels_fn(j - i, n)`.

    `labels_fn(d, n)` gives the int64 label array of the hom spaces of degree
    d.  Each degree's array is built once, made read-only, and shared by
    every key (i, j) with j - i = d; a basis is replaced by assigning a new
    array to its key.  The compose rule is `compose_block`, which serves
    every basis whose elements compose by adding labels.
    """
    levels = range(-n - 1, 0)
    shared = [labels_fn(d, n) for d in range(n + 1)]
    for basis in shared:
        basis.flags.writeable = False
    bases = {(i, j): shared[j - i] for i in levels for j in levels if i <= j}
    return Quiver(n=n, hom_bases=bases, compose=compose_block)


def quotient_quiver(n: int) -> Quiver:
    """The quiver of quotient cells for given n: levels -n-1, ..., -1.

    Hom bases come from `hom_labels`; the block rule `compose_block` adds
    multi-indices: labels b of hom(i, j) and c of hom(j, k) compose to b + c.
    """
    return tabulate_quiver(n, hom_labels)


def is_strong_exceptional(q: Quiver) -> bool:
    """Check the strong-exceptionality conditions on a quiver.

    Requires: every endomorphism space is one-dimensional and its one label
    row acts as a two-sided unit under `q.compose`, applied to the blocks
    (unit, basis) and (basis, unit) of label arrays; no nonzero homs from a
    higher to a lower level; all morphisms in degree 0 (structural here,
    since nonzero degrees are empty by construction).  Each distinct block
    of arrays is composed once, in `block_chunks`, and the unit's composite
    with each row must equal that row.
    """
    if any(j < i and len(basis) for (i, j), basis in q.hom_bases.items()):
        return False
    units = {}
    for level in q.levels:
        units[level] = q.hom(level, level)
        if len(units[level]) != 1:
            return False
    passed = {}  # (id(fs), id(gs), unit first) of each block that passed -> its arrays, which keep the ids unique
    for (i, j), basis in q.hom_bases.items():
        for fs, gs, unit_first in ((basis, units.get(j), False), (units.get(i), basis, True)):
            key = id(fs), id(gs), unit_first
            if fs is None or gs is None or key in passed:
                continue
            # An empty basis holds no composite; it is composed whole, so that one as wide as no unit still fails.
            chunks = block_chunks(fs, gs) if len(basis) else [(slice(None), slice(None))]
            try:
                for rows, cols in chunks:
                    table = q.compose(gs[cols], fs[rows])
                    composites, factors = (table[0], gs[cols]) if unit_first else (table[:, 0], fs[rows])
                    if not np.array_equal(composites, factors):
                        return False
            except ValueError:  # the unit's labels do not fit the basis, so it is no unit
                return False
            passed[key] = fs, gs
    return True


def quiver_to_dict(q: Quiver, prefix: str = "U") -> dict:
    """JSON-ready description: objects, hom bases, and every composition.

    The same schema is used for the cell quiver and the line-bundle quiver, so
    the two exports can be diffed directly.  Compositions come block by block
    in (i, j, k) order, each block's pairs in stored row order, f outer.
    """
    homs = [
        {"i": i, "j": j, "basis": basis.tolist()}
        for (i, j), basis in sorted(q.hom_bases.items())
    ]
    comps = [
        {"i": i, "j": j, "k": k, "f": f, "g": g, "gf": gf}
        for i, j, k, f, g, gf in q.compositions()
    ]
    comps.sort(key=lambda e: (e["i"], e["j"], e["k"]))
    return {
        "n": q.n,
        "objects": [f"{prefix}({level})" for level in q.levels],
        "homs": homs,
        "compositions": comps,
    }


def _label_texts(labels: np.ndarray, pad: str) -> np.ndarray:
    """The indent=2 JSON list text of each row of `labels`, as an object array.

    `pad` is a newline and the indentation of the line each list starts on.
    """
    sep = "," + pad + "  "
    texts = np.empty(len(labels), dtype=object)
    texts[:] = ["[" + pad + "  " + sep.join(map(str, row)) + pad + "]" if row else "[]" for row in labels.tolist()]
    return texts


def _json_list(pieces: Iterable[str], pad: str) -> Iterator[str]:
    """An indent=2 JSON list from runs of its item texts, as parts to write in turn.

    Each item starts with its newline and indentation, and the items of one
    run are joined by commas; an empty run is skipped.  `pad` is a newline
    and the indentation of the list's own line.
    """
    opening = "["
    for piece in pieces:
        if piece:
            yield opening + piece
            opening = ","
    yield "[]" if opening == "[" else pad + "]"


def _row_positions(labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index in `labels` of each row of `rows`; ValueError for a row not in `labels`.

    A row's int64 key reads its entries as mixed-radix digits above the least
    entry of each column of `labels`, whose spans must multiply to below 2**63.
    The rows found are checked, since a row outside those ranges can share a key.
    """
    if not len(labels):
        raise ValueError("no labels to find rows in")
    low, high = labels.min(axis=0), labels.max(axis=0)
    spans = [h - l + 1 for l, h in zip(low.tolist(), high.tolist())]
    if math.prod(spans) >= 1 << 63:
        raise ValueError(f"label spans {spans} do not fit one int64 key")
    weights = np.array([math.prod(spans[c + 1 :]) for c in range(len(spans))], dtype=np.int64)
    keys = (labels - low) @ weights
    order = np.argsort(keys)
    positions = order[np.minimum(np.searchsorted(keys, (rows - low) @ weights, sorter=order), len(order) - 1)]
    if not np.array_equal(labels[positions], rows):
        raise ValueError("a row is not among the labels")
    return positions


def quiver_json(q: Quiver, prefix: str = "U", pad: str = "\n") -> Iterator[str]:
    """The text of `json.dumps(quiver_to_dict(q, prefix), indent=2)`, written from the label arrays.

    Two phases.  At call time each distinct block, known by its arrays
    hom(i, j), hom(j, k) and hom(i, k), is composed once, in `block_chunks`
    so no temporary array holds more than about CHUNK_ENTRIES label entries,
    and each g∘f is found among the rows of hom(i, k) by `_row_positions`;
    only those int32 positions are kept, shared by the blocks of one
    distinct block, with the rendered homs and label texts.  Every
    ValueError is raised here: the compose rule's, and one naming the first
    block, in (i, j, k) order, with a composite outside hom(i, k).  The call
    then returns an iterator that renders the text piece by piece, each
    piece holding at most PIECE_ITEMS compositions, so no more than one
    piece of the compositions is held as text at a time.

    `pad` is a newline and the indentation of the line the text starts on,
    so the text can stand at any depth of an enclosing indent=2 document.
    Each label of a basis array is rendered once as its JSON list text
    (`_label_texts`).  A basis is written by gathering its rows' texts, and
    a block of compositions by gathering those of f, g and g∘f between
    constant key strings.
    """
    key_pad, item_pad = pad + "  ", pad + "    "
    row_pad = item_pad + "    "
    head = {"n": q.n, "objects": [f"{prefix}({level})" for level in q.levels], "homs": [], "compositions": []}
    start, middle, end = json.dumps(head, indent=2).replace("\n", pad).rsplit("[]", 2)
    # Keys of one degree share their array, so each distinct array is rendered once.
    distinct = {id(basis): basis for basis in q.hom_bases.values()}

    def template(entry: dict) -> list[str]:
        """The text of a list item `entry` from json itself, split at each "[]"; "%d" stands for a level."""
        return (item_pad + json.dumps(entry, indent=2).replace("\n", item_pad).replace('"%d"', "%d")).split("[]")

    entry_head, entry_tail = template({"i": "%d", "j": "%d", "basis": []})
    item_head, middle_f, middle_g, item_tail = template({"i": "%d", "j": "%d", "k": "%d", "f": [], "g": [], "gf": []})
    rows_of = {key: ",".join((row_pad + _label_texts(basis, row_pad)).tolist()) for key, basis in distinct.items()}
    homs = [
        "".join([entry_head % (i, j), *_json_list([rows_of[id(basis)]], item_pad + "  "), entry_tail])
        for (i, j), basis in sorted(q.hom_bases.items())
    ]
    texts = {key: _label_texts(basis, item_pad + "  ") for key, basis in distinct.items()}
    blocks = []
    located = {}  # (id(fs), id(gs), id(target)) of each block located -> its positions; the quiver keeps the ids unique
    for i, j, k, fs, gs in sorted(q.blocks(), key=lambda block: block[:3]):
        target = q.hom(i, k)
        key = id(fs), id(gs), id(target)
        if key not in located:
            positions = np.empty((len(fs), len(gs)), dtype=np.int32)  # hom(i, k) has at most C(2n, n) < 2**31 rows while n <= 16; n = 17 needs 317 GB of labels
            for rows, cols in block_chunks(fs, gs):
                table = q.compose(gs[cols], fs[rows])
                try:
                    positions[rows, cols] = _row_positions(target, table.reshape(-1, table.shape[-1])).reshape(table.shape[:2])
                except ValueError as error:
                    raise ValueError(f"block ({i}, {j}, {k}): composites outside hom({i}, {k}): {error}") from None
            located[key] = positions.ravel()
        blocks.append((item_head % (i, j, k), texts[id(fs)], texts[id(gs)], texts[id(target)], located[key]))

    def compositions() -> Iterator[str]:
        for opening, f_texts, g_texts, gf_texts, positions in blocks:
            for first in range(0, len(positions), PIECE_ITEMS):
                pairs = np.arange(first, min(first + PIECE_ITEMS, len(positions)))  # f * len(gs) + g, f outer
                parts = ["," + opening, "", middle_f, "", middle_g, "", item_tail] * len(pairs)
                parts[0] = opening
                parts[1::7] = f_texts[pairs // len(g_texts)].tolist()
                parts[3::7] = g_texts[pairs % len(g_texts)].tolist()
                parts[5::7] = gf_texts[positions[pairs]].tolist()
                yield "".join(parts)

    return itertools.chain([start], _json_list(homs, key_pad), [middle], _json_list(compositions(), key_pad), [end])


def quiver_to_dot(q: Quiver, prefix: str = "U", name: str = "cells") -> str:
    """Graphviz DOT export: objects as nodes, consecutive-level generators as edges."""
    lines = [f"digraph {name} {{"]
    for level in q.levels:
        lines.append(f'  "{prefix}({level})";')
    for (i, j), basis in sorted(q.hom_bases.items()):
        if j != i + 1:
            continue
        for el in basis.tolist():
            label = ",".join(str(v) for v in el)
            lines.append(f'  "{prefix}({i})" -> "{prefix}({j})" [label="({label})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
