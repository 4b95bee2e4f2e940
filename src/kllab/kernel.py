"""
The integer-id block kernel behind the Hecke and parabolic tables.

Every table is keyed by ``Element.index``; ids follow length, then
ShortLex, so "the top remaining term" of a triangular solve is the
largest id.  A column is a sorted id array (the downset of x, or its
minimal coset representatives) plus integer coefficients: a sparse
``Block`` of nonzero terms, or a dense ``InverseColumn`` whose row i,
column e holds the coefficient of v^e; ``block_terms`` decodes either.

Every sum of blocks goes through one scatter, ``add_blocks``: it adds
sum c v^e (block of z) into the rows of a batch of columns x, given flat
entries (x, z, e, c), with one ``np.add.at`` per piece.  The passes built
on it take a chunk of columns at a time (``batched``):

- ``bar_invariant_blocks``: canonical elements from the blocks of
  bar(m_z) by id, one length level of every column of the chunk per step;
- ``alternating_failures``: the inversion identity of whole columns in
  either orientation, canonical blocks over inverse columns (the
  Kronecker sums) or inverse columns over canonical blocks (the Rouquier
  shadow).  A table keeps one shadow pass, which decides both
  orientations; the Kronecker sums run only when it fails or raises, to
  name the failing pairs.  Its terms also feed, mirrored, the
  certificate's sum of bar(inverse) times canonical blocks.

One chunker, ``chunks``, reads the rows of each column once and hands
every pass its chunk as a ``Batch`` of about ``CELL_BUDGET`` cells: the
xs, their rows and the table that locates a row in a column.  One cutter,
``pieces``, cuts every scatter and scan into pieces of the same budget.
An error in a chunk is raised as the first failing column raises it
alone.  The prefix recursions (inverse columns here, b_x and bar(m_x) in
``hecke``) run one length level at a time (``prefix_levels``): the
columns of a chunk of the level take one stacked step from their
prefixes' columns, and ``dense_blocks`` cuts the result into blocks once
per chunk; a lone request walks its missing prefixes as one-column
levels.  A module is a ``ParabolicContext``: a quotient ^I W and a
flavor, the regular module being the quotient with I empty.
``ColumnTable``, the table core of every module, reads its basis and
wall rule from one, builds the inverse column of x = x's from the column
of x' by m_x = m_{x'} (b_s - v), checks the inversion identity
(``inversion_holds``), holds the trust rule (``columns_hold``) and
certifies its canonical blocks on the shadow pass (``certificate_holds``).

Arithmetic is int64 under a bound on coefficient size, one decision per
chunk: the bound is the exact total over the chunk, never below the
bound of any of its columns.  A chunk whose bound would reach 2^62 runs
whole, by the same code, with ``dtype=object`` (exact Python ints), so
no result ever depends on wrapping.  Stored values move to a narrower
integer dtype only after an exact range check.
"""

from __future__ import annotations

from collections import ChainMap
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from .coxeter import Element, GroupTable
from .laurent import LaurentPoly

_ZERO = LaurentPoly.zero()

#: a batched pass runs a chunk in exact ints when its bound reaches this
INT64_LIMIT = 1 << 62

#: about the most array cells a batched pass holds at once: the dense sums
#: of a chunk of columns with their id tables, the index arrays of a scatter
#: piece or of a piece of scan triples.  Each (chunk, length level) pays a
#: fixed cost in numpy calls, which dominates rank 3-4; 2^16 halves the
#: chunks of 2^15 for 0.5 MB more peak RSS on the H3 suite
CELL_BUDGET = 1 << 16


class InvariantError(RuntimeError):
    """A mathematically guaranteed internal invariant failed to hold."""


class Block(NamedTuple):
    """The nonzero coefficients of one module element, keyed by element id.

    Term k is ``values[k]`` v^``exps[k]`` in the row of element
    ``ids[k]``; the terms are sorted by row.  Only nonzero terms are kept:
    on a long affine cap almost every row of b_x is a single monomial, and
    a dense block would grow with the cube of the cap.  ``row_norm`` is
    the largest sum of absolute values over one row, as an exact int.

    Canonical elements have exponents in [0, l(x)]; bar(m_x), in the
    regular module or in a quotient, has exponents in [-l(x), l(x)].
    """

    ids: np.ndarray
    exps: np.ndarray
    values: np.ndarray
    row_norm: int

    @property
    def size(self) -> int:
        return len(self.values)

    def terms(self):
        """Row id, exponent and value of each term, as arrays."""
        return self.ids, self.exps, self.values


def exact_array(values: list[int]) -> np.ndarray:
    """The values in the narrowest integer dtype holding them all, or in
    dtype=object (exact Python ints) when they reach INT64_LIMIT."""
    if values and max(-min(values), max(values)) >= INT64_LIMIT:
        return np.array(values, dtype=object)
    return narrow(np.array(values, dtype=np.int64))


def narrow(block: np.ndarray) -> np.ndarray:
    """An int64 array in the narrowest dtype that holds its range exactly."""
    lo, hi = (int(block.min()), int(block.max())) if block.size else (0, 0)
    return block.astype(np.min_scalar_type(min(lo, -1 - hi)), copy=False)


def max_abs(block: np.ndarray) -> int:
    """The largest absolute value in the array, as an exact int."""
    return max(-int(block.min()), int(block.max())) if block.size else 0


def dense_blocks(ids: list[np.ndarray], dense: np.ndarray,
                 offset: int = 0) -> list[Block]:
    """The nonzero terms of each column of ``dense`` as a ``Block``: its
    rows are the sorted ``ids`` of the columns end to end (``Batch``), and
    its column j holds the exponent j - offset.  The whole array is cut
    once; each column's values are narrowed, and its row norm taken, on
    their own."""
    exact = dense.dtype == object
    i, j = np.nonzero(dense)
    values = dense[i, j]
    new = np.diff(i, prepend=-1) != 0       # the first term of each row
    size = np.abs(values if exact or max_abs(values) * dense.shape[1]
                  < INT64_LIMIT else values.astype(object))
    sums = np.add.reduceat(size, np.flatnonzero(new)) if len(i) else size
    start = np.cumsum([0] + [len(rows) for rows in ids])
    t, r = np.searchsorted(i, start), np.searchsorted(i[new], start)
    term_ids, exps = np.concatenate(ids)[i], j - offset
    return [Block(term_ids[t[k]:t[k + 1]], exps[t[k]:t[k + 1]],
                  exact_array(values[t[k]:t[k + 1]].tolist()) if exact
                  else narrow(values[t[k]:t[k + 1]]),
                  int(sums[r[k]:r[k + 1]].max(initial=0)))
            for k in range(len(ids))]


def block_terms(group: GroupTable, block) -> dict[Element, LaurentPoly]:
    """Decode a ``Block`` or an ``InverseColumn`` to Element -> LaurentPoly
    over its nonzero rows, in id order, through its ``terms()`` arrays."""
    polys: dict[int, dict[int, int]] = {}
    for y, e, c in zip(*(a.tolist() for a in block.terms())):
        polys.setdefault(y, {})[e] = c
    elements = group.elements
    return {elements[y]: LaurentPoly(p) for y, p in polys.items()}


def block_row(block, y: int) -> LaurentPoly:
    """The coefficient of the element with id y in a ``Block`` or an
    ``InverseColumn``, decoded."""
    if isinstance(block, Block):
        lo, hi = np.searchsorted(block.ids, [y, y + 1]).tolist()
        return LaurentPoly(zip(block.exps[lo:hi].tolist(),
                               block.values[lo:hi].tolist()))
    pos = int(np.searchsorted(block.rows, y))
    if pos == len(block.rows) or block.rows[pos] != y:
        return _ZERO
    return row_poly(block.coeffs[pos])


def row_poly(row: np.ndarray) -> LaurentPoly:
    """One row of a dense block with exponents from 0."""
    return LaurentPoly({e: c for e, c in enumerate(row.tolist()) if c})


class InverseColumn(NamedTuple):
    """One stored inverse column: row i of the read-only ``coeffs`` holds
    the coefficient of v^e, column e, of the element with id ``rows[i]``,
    ``rows`` being the sorted ids of the column.  ``block_terms`` decodes
    it as it decodes a ``Block``."""

    rows: np.ndarray
    coeffs: np.ndarray

    @property
    def size(self) -> int:
        """The number of nonzero entries."""
        return int(np.count_nonzero(self.coeffs))

    def terms(self):
        """Row id, exponent and value of each nonzero entry, as arrays."""
        pos, exps = np.nonzero(self.coeffs)
        return self.rows[pos], exps, self.coeffs[pos, exps]


# ----------------------------------------------------------------------
# the batched passes
# ----------------------------------------------------------------------

class Batch:
    """A chunk of columns stacked as the rows of one array: column k, of
    x = ``xs[k]``, holds rows ``start[k]:start[k + 1]``, the sorted ids
    ``rows[k]`` of its basis elements below x, x last (row ``top[k]``).
    Every batched pass receives its chunk as one (``chunks``)."""

    def __init__(self, xs: list[Element], rows: list[np.ndarray]):
        self.xs, self.rows = xs, rows
        sizes = [len(r) for r in rows]
        self.ids, self.start = np.concatenate(rows), np.cumsum([0] + sizes)
        self.top, self.slot = self.start[1:] - 1, np.repeat(
            np.arange(len(xs)), sizes)
        # per column, the row of each id up to x and -1 at x.index + 1
        self._cap = np.array([x.index + 1 for x in xs], dtype=np.intp)
        self._base = np.cumsum(self._cap + 1) - self._cap - 1
        self._where = np.full(int(self._cap.sum()) + len(xs), -1, np.intp)
        self._where[self._base[self.slot] + self.ids] = np.arange(
            len(self.ids))

    def locate(self, slot: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The row of id y in column ``slot``, -1 where y is no row of it."""
        return self._where[self._base[slot] + np.minimum(y, self._cap[slot])]

    def split(self, rows: np.ndarray) -> list[np.ndarray]:
        """``rows`` (one entry per row) cut into the columns."""
        return [rows[a:b] for a, b in zip(self.start[:-1], self.start[1:])]


def stack_terms(blocks) -> tuple[np.ndarray, ...]:
    """The terms of ``blocks`` end to end: the block, row id, exponent and
    value of each, as arrays."""
    slot = np.repeat(np.arange(len(blocks)), [b.size for b in blocks])
    rows, exps, values = (np.concatenate(p) for p in zip(
        *[b.terms() for b in blocks]))
    return slot, rows, exps, values


def pieces(counts, cells: int):
    """(a, b) bounds of the runs of entries a..b-1, in order, entry k
    holding ``counts[k]`` items of ``cells`` cells each, about CELL_BUDGET
    cells a run: the one cut of every scatter and every scan into pieces."""
    start = np.cumsum(counts) - counts
    cuts = np.flatnonzero(np.diff(start * cells // CELL_BUDGET)) + 1
    bounds = [0, *cuts.tolist(), len(counts)] if len(counts) else []
    return zip(bounds, bounds[1:])


def add_blocks(acc: np.ndarray, locate, slot: np.ndarray, block: np.ndarray,
               shift: np.ndarray, coef: np.ndarray, blocks: list,
               fault: Callable[[int], str], mirror=None) -> None:
    """acc[locate(slot[k], y), exp + shift[k]] += coef[k] * value for every
    entry k and every term (y, exp, value) of ``blocks[block[k]]`` (a
    ``Block``, or the nonzero entries of an ``InverseColumn``): the one
    scatter of every sum of blocks.  ``locate`` gives the row of id y in
    column slot, or -1 (``Batch.locate``).

    The entries go in order, in ``pieces`` of about eight index arrays per
    term, a piece taking the terms of each of its entries end to end: one
    ``np.add.at`` each.  ``coef`` has the dtype of ``acc``.  The first
    entry k, in entry order, with a term off the rows of its column or off
    the columns of ``acc`` raises InvariantError(fault(k)).  Given
    ``mirror`` = (array, shifts), each term also goes to column exp +
    shifts[k] of the array, from the same gathered terms, where that
    column is on the array.
    """
    flat, width = acc.reshape(-1), acc.shape[1]
    n = np.array([b.size for b in blocks], dtype=np.intp)[block]
    bad = len(block)
    for a, b in pieces(n, 8):
        m, own = n[a:b], block[a:b].tolist()
        terms = {j: blocks[j].terms() for j in set(own)}
        rows, exps, values = (np.concatenate(p) for p in zip(
            *map(terms.get, own)))
        pos = locate(np.repeat(slot[a:b], m), rows)
        cols = exps + np.repeat(shift[a:b], m)
        if pos.min(initial=0) < 0 or cols.min(initial=0) < 0 \
                or cols.max(initial=0) >= width:
            off = (pos < 0) | (cols < 0) | (cols >= width)
            bad = min(bad, int(np.arange(a, b).repeat(m)[off].min()))
            continue
        values = values * coef[a:b].repeat(m)
        np.add.at(flat, pos * width + cols, values)
        if mirror is not None:
            wide = mirror[0].shape[1]
            cols = exps + np.repeat(mirror[1][a:b], m)
            on = (cols >= 0) & (cols < wide)
            np.add.at(mirror[0].reshape(-1), (pos * wide + cols)[on],
                      values[on])
    if bad < len(block):
        raise InvariantError(fault(bad))


def exact_total(amounts: np.ndarray) -> int:
    """The sum of ``amounts`` as an exact Python int."""
    return sum(amounts.tolist())


def chunks(xs, rows, width: Callable[[Element], int]):
    """The ``Batch`` of each run of ``xs``, in order: the columns of a run,
    ``rows(x)`` times ``width(x)`` cells each, and their id tables hold
    about CELL_BUDGET cells, or it is one x alone.  ``rows`` is read once
    per x."""
    run, ids, cells = [], [], 0
    for x in xs:
        r = rows(x)
        c = len(r) * width(x) + x.index + 2
        if run and cells + c > CELL_BUDGET:
            yield Batch(run, ids)
            run, ids, cells = [], [], 0
        run.append(x)
        ids.append(r)
        cells += c
    if run:
        yield Batch(run, ids)


def batched(xs, rows, width: Callable[[Element], int], run):
    """(x, run(batch)[i]) for each x of ``xs`` in order, ``run`` taking the
    ``Batch`` of each of the ``chunks``.  A chunk that raises is redone as
    lone ``Batch``es, one x at a time, so the error raised is the first
    failing x's, worded as its lone request words it."""
    for batch in chunks(xs, rows, width):
        try:
            got = run(batch)
        except (InvariantError, ValueError):    # a column's own errors
            if len(batch.xs) == 1:
                raise
            got = (run(Batch([x], [r]))[0]         # lazily, in order
                   for x, r in zip(batch.xs, batch.rows))
        yield from zip(batch.xs, got)
        del batch, got                  # before the next Batch is built


def prefix_levels(group: GroupTable, xs, known) -> list[list[Element]]:
    """The prefixes of the canonical words of ``xs`` (xs included) that
    are not keys of ``known``, as length levels, shortest first: the
    prefix of each one is in ``known`` or in the level before."""
    seen: dict[int, None] = {}
    both = ChainMap(known, seen)
    for x in xs:
        if x.index not in known:
            seen.update(dict.fromkeys(group.missing_prefixes(x, both)))
    elements = group.elements
    return [[elements[i] for i in level] for _, level in groupby(
        sorted(seen), lambda i: elements[i].length)]


def _bar_solve_chunk(group: GroupTable, batch: Batch, bars, dtype
                     ) -> list[Block]:
    """The canonical elements of the xs of a ``Batch`` over its rows, in
    ``dtype``, given ``bars[z]``, the block of bar(m_z) for each id z of
    the rows; an int64 chunk whose bound reaches INT64_LIMIT is redone
    whole in exact ints.

    Write the element of x as sum_z n_z m_z with n_x = 1.  Bar-invariance
    says that for every row y, a_y = sum_{z > y} bar(n_z) r_{y,z} equals
    n_y - bar(n_y), where bar(m_z) = sum_y r_{y,z} m_y; since n_y lies in
    vZ[v], a_y is antisymmetric and n_y is its part of positive degree.
    ``acc`` holds these sums for the rows of all columns over exponents
    [-T, T], T the longest l(x).  Rows of one length never feed each
    other, so the pass takes one length level of every column at a time,
    from the top: it checks the level's sums, reads off its n_y and adds
    bar(n_y) times the block of bar(m_y) into all rows in one scatter.  At
    the end ``acc`` is bar of the result, which must equal it.  The bound
    of the chunk grows by max|n_y| times the row norm of bar(m_y) for
    each row of each column.
    """
    elements, xs = group.elements, batch.xs
    top = max(x.length for x in xs)
    acc = np.zeros((len(batch.ids), 2 * top + 1), dtype=dtype)
    out = np.zeros((len(batch.ids), top + 1), dtype=dtype)
    bound = 0
    order = np.argsort(-batch.ids)          # ids follow length
    lengths = group.lengths[batch.ids]
    for rows in np.split(order, np.flatnonzero(
            np.diff(lengths[order])) + 1):
        slot = batch.slot[rows]
        own = rows == batch.top[slot]
        coef = acc[rows, top:]
        skew = ~own & (coef != -acc[rows, top::-1]).any(axis=1)
        high = ~own & ((coef[:, 1:] != 0) & (np.arange(1, top + 1) > (
            lengths[batch.top[slot]] - lengths[rows])[:, None])
        ).any(axis=1)
        # a lone column takes its rows from the top: those above its first
        # failing row are still scattered, so a stray among them comes first
        fail = skew | high
        cut = int(fail.argmax()) if fail.any() else len(rows)
        coef[own, 0] = 1
        size = np.abs(coef[:cut]).max(axis=1, initial=0)
        has = np.flatnonzero(size)
        zs, which = np.unique(batch.ids[rows[has]], return_inverse=True)
        blocks = [bars[z] for z in zs.tolist()]
        if dtype is not object:
            bound += exact_total(size[has] * np.array(
                [b.row_norm for b in blocks], dtype=object)[which])
            if bound >= INT64_LIMIT:
                return _bar_solve_chunk(group, batch, bars, object)
        i, e = np.nonzero(coef[:cut])
        out[rows[i], e] = coef[i, e]
        block = np.zeros(cut, np.intp)
        block[has] = which
        add_blocks(acc, batch.locate, slot[i], block[i], top - e, coef[i, e],
                   blocks, lambda k: (
                       f"the block of {elements[batch.ids[rows[i[k]]]]!r} has "
                       f"a term outside the rows of {xs[slot[i[k]]]!r}"))
        if cut < len(rows):
            z, x = elements[batch.ids[rows[cut]]], xs[slot[cut]]
            raise InvariantError(
                f"bar-invariance solve at {x!r}: the coefficient of {z!r} "
                + ("is not antisymmetric" if skew[cut] else
                   f"has a term above degree {x.length - z.length}"))
    for x, rows, a, n in zip(xs, batch.rows, *map(batch.split, (acc, out))):
        if a[:, :top].any() or (a[:, top:] != n).any():
            raise InvariantError("bar-invariance solve produced a "
                                 f"non-self-dual element at {x!r}")
        if (rows[-1] != x.index or n[-1, 0] != 1 or n[-1, 1:].any()
                or n[:-1, 0].any()):
            raise InvariantError(
                f"canonical element at {x!r} not unitriangular over vZ[v]")
    return dense_blocks(batch.rows, out)


def bar_invariant_blocks(group: GroupTable, xs, rows, bars):
    """(x, block) for each x of ``xs`` in order: the bar-invariant element
    m_x + sum_{y < x} vZ[v] m_y over the sorted ``rows(x)`` (x last),
    given ``bars``, the blocks of bar(m_z) by id z, by one batched pass
    per chunk.  Raises InvariantError when the pass finds no such element.
    """
    return batched(xs, rows, lambda x: 3 * x.length + 2, lambda batch: (
        _bar_solve_chunk(group, batch, bars, np.int64)))


def alternating_failures(group: GroupTable, batch: Batch, outer,
                         inner_of: Callable[[list], list], stray: str,
                         bars=None):
    """For each x of a ``Batch``, the ids y among the rows of its column
    at which

        sum_z (-1)^{l(z)} c v^e (inner column of z)

    over the terms c v^e, in row z, of ``outer`` (the outer column of x)
    differs from (-1)^{l(x)} [y = x]: one batched sum per chunk.  The
    inner columns ``inner_of(zs)`` are blocks or inverse columns, and the
    bound of the chunk is the total of |c| times the row norm of a block
    or the largest entry of an inverse column.  A term outside the window
    [0, l(x) - l(z)] raises, and so does a term of an inner column off
    the rows of x (``stray.format(z, x)``) or off the exponents [0, l(x)],
    whichever columns share the chunk.  A ``ColumnTable`` keeps its
    shadow pass, which decides both orientations (``inversion_holds``).

    Returns the failing rows and, per x, whether it meets (b) of
    ``ColumnTable.certificate_holds``: given ``bars``, the blocks of
    bar(m_x), the terms also go, each exponent e mirrored to -e, into a
    sum over [-T, T], T the longest l(x), that decides it; without them
    every x meets it.
    """
    elements, lengths, xs = group.elements, group.lengths, batch.xs
    slot, z, e, values = stack_terms(outer)
    zs, which = np.unique(z, return_inverse=True)
    inner = inner_of([elements[y] for y in zs.tolist()])
    norm = np.array([b.row_norm if isinstance(b, Block) else
                     max_abs(b.coeffs) for b in inner], dtype=object)
    reach = np.array([b.exps.max(initial=0) if isinstance(b, Block) else
                      b.coeffs.shape[1] - 1 for b in inner], np.intp)
    tops = np.array([x.length for x in xs])
    window = tops[slot] - lengths[z]
    outside = (e < 0) | (e > window)
    coef = values * (1 - 2 * (lengths[z] % 2))
    dtype = object if exact_total(np.abs(coef) * norm[which]) + sum(
        b.row_norm for b in bars or ()) >= INT64_LIMIT else np.int64

    def fault(k):
        x, zk = xs[slot[k]], elements[z[k]]
        if outside[k] and np.isin(inner[which[k]].terms()[0],
                                  batch.rows[slot[k]]).all():
            return (f"coefficient of {zk!r} at {x!r} has a term outside the "
                    f"window [0, {window[k]}]")
        return stray.format(zk, x)
    width = int(tops.max()) + 1
    acc = np.zeros((len(batch.ids), width), dtype=dtype)
    sign = (1 - 2 * (tops % 2)).astype(dtype)       # (-1)^{l(x)}
    # a mirrored term falls off its array only when an entry's exponent
    # lies off its window, which raises, or an inner block has one off
    # [0, l(z)], which fails (c) of the certificate
    mirror = None if bars is None else (
        np.zeros((len(batch.ids), 2 * width - 1), dtype), width - 1 - e)
    # a term off its window or reaching past l(x) is sent off the array,
    # where add_blocks reports it in entry order after earlier stray rows
    add_blocks(acc, batch.locate, slot, which, np.where(
        outside | (e + reach[which] > tops[slot]), -width, e),
        coef.astype(dtype), inner, fault, mirror)
    acc[batch.top, 0] -= sign
    failing = [frozenset(rows[a.any(axis=1)].tolist())
               for rows, a in zip(batch.rows, batch.split(acc))]
    held = np.ones(len(xs), bool)
    for a, b in pieces([blk.size for blk in bars or ()], 8):
        slot, y, e, values = stack_terms(bars[a:b])
        slot += a
        pos = batch.locate(slot, y)
        off = (pos < 0) | (np.abs(e) > tops[slot])
        held[slot[off]] = False
        np.add.at(mirror[0], (pos[~off], e[~off] + width - 1),
                  -values[~off].astype(dtype) * sign[slot[~off]])
    if mirror is not None:
        held &= ~np.logical_or.reduceat(mirror[0].any(axis=1),
                                        batch.start[:-1])
    return failing, held


SPHERICAL = "spherical"
ANTISPHERICAL = "antispherical"


class ParabolicContext:
    """A quotient ^I W with a flavor fixing how delta_t acts for t in I;
    with I empty, the regular module."""

    def __init__(self, group: GroupTable, subset, flavor: str):
        if flavor not in (SPHERICAL, ANTISPHERICAL):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.group = group
        self.subset = frozenset(subset)
        self.flavor = flavor
        self.reps = group.min_coset_reps(self.subset)
        self.rep_mask = np.zeros(len(group), dtype=bool)
        self.rep_mask[[r.index for r in self.reps]] = True
        # scalar by which delta_t (t in I) acts on the rank-1 module
        self.scalar = (LaurentPoly.v(-1) if flavor == SPHERICAL
                       else LaurentPoly.v(1, -1))
        self._cosets = None

    def is_rep(self, x: Element) -> bool:
        return bool(self.rep_mask[x.index])

    def cosets(self) -> tuple[np.ndarray, ...]:
        """Per id w = u * x, u in W_I: the id of x and l(u); per x, the id
        of the longest element of W_I x in the table (w_I x if complete);
        memoized.  w = t (tw) for a left descent t in I splits like tw, so
        one vectorised walk down such descents takes every w to its x."""
        if self._cosets is None:
            group, isub = self.group, sorted(self.subset)
            rep = np.arange(len(group))
            walk = rep[:len(group) if isub else 0]
            while len(walk):
                down = group.left_descents[rep[walk]][:, isub]
                has = down.any(axis=1)
                walk = walk[has]
                rep[walk] = group.left[rep[walk], np.array(isub)[
                    down[has].argmax(axis=1)]]
            top = np.zeros(len(group), np.intp)
            np.maximum.at(top, rep, np.arange(len(group)))
            self._cosets = rep, group.lengths - group.lengths[rep], top
        return self._cosets

    def coset_decomposition(self, w: Element) -> tuple[Element, int]:
        """The representative x and l(u) from the splitting w = u * x
        (``cosets``)."""
        rep, up, _ = self.cosets()
        return self.group.elements[rep[w.index]], int(up[w.index])

    def downset_ids(self, x: Element) -> np.ndarray:
        """The ids of the representatives y <= x, ascending: with I empty
        the group's own array, else filtered from it on each call."""
        ids = self.group.downset_ids(x)
        return ids[self.rep_mask[ids]] if self.subset else ids


class ColumnTable:
    """The inverse columns of one module over its canonical basis, and the
    inversion identity on them: the core of ``KLTable`` (the regular
    module, the quotient with I empty) and ``ParabolicKLTable`` (any
    quotient).

    The basis, its mask and the wall rule come from the table's
    ``ParabolicContext``; the rows of the column of x are
    ``column_ids(x)``, the sorted ids of the basis elements below x (x
    last), as ``columns_hold`` checks.  A subclass supplies
    ``canonical_blocks(xs)``, which fills ``_canonical`` with the blocks
    of the canonical elements, and may check the new columns in
    ``_check_columns``.  The inverse columns are built by length levels,
    reading mu from one flat per-id store filled from the canonical blocks.
    """

    def __init__(self, context: ParabolicContext):
        self.context, self.group = context, context.group
        self.basis, self.mask = context.reps, context.rep_mask
        self.spherical = context.flavor == SPHERICAL
        self._canonical: dict[int, Block] = {}
        self._inv_cols: dict[int, InverseColumn] = {0: InverseColumn(
            np.zeros(1, np.intp), np.broadcast_to(np.int8(1), (1, 1)))}
        # mu(y, z) for each z read so far, in one flat store: z's entries
        # are mu_y and mu_value[start:end], (start, end) = mu_span[z], and
        # end is -1 while z is unread; the arrays double when they grow
        self._mu_span = np.full((len(self.group), 2), -1, np.intp)
        self._mu_y = np.zeros(0, np.intp)
        self._mu_value = np.zeros(0, np.int64)
        self._mu_size = 0
        self._kronecker: dict[int, frozenset[int]] = {}
        self._shadow: dict[int, frozenset[int]] = {}
        # the stored column of each x last found to keep the trust rule
        self._held: dict[int, InverseColumn] = {}

    def column_ids(self, x: Element) -> np.ndarray:
        """The ids of the basis elements y <= x; x must be one."""
        if not self.context.is_rep(x):
            raise ValueError(f"{x!r} is not a minimal coset representative")
        return self.context.downset_ids(x)

    def canonical_block(self, x: Element) -> Block:
        """The block of the canonical element of x, by
        ``canonical_blocks``."""
        got = self._canonical.get(x.index)
        return got if got is not None else self.canonical_blocks([x])[0]

    def inverse_column(self, x: Element) -> InverseColumn:
        """The inverse polynomials at (y, x) for every basis element y <= x,
        by ``inverse_columns``."""
        got = self._inv_cols.get(x.index)
        return got if got is not None else self.inverse_columns([x])[0]

    def inverse_columns(self, xs) -> list[InverseColumn]:
        """The inverse columns of ``xs``.  The missing ones and the missing
        prefixes they step up from are built one length level at a time,
        a chunk per ``_inverse_steps``, so a lone x walks its prefixes as
        one-column levels; only the columns of xs are checked and stored."""
        stored, want, prev = self._inv_cols, {x.index for x in xs}, {}

        def run(batch):
            cols = self._inverse_steps(batch, known)
            self._check_columns([(x, col) for x, col in zip(batch.xs, cols)
                                 if x.index in want])
            return cols
        for level in prefix_levels(self.group, xs, stored):
            known, prev = ChainMap(prev, stored), {}
            for x, col in batched(level, self.column_ids,
                                  lambda x: x.length + 2, run):
                prev[x.index] = col
                if x.index in want:
                    stored[x.index] = col
        return [stored[x.index] for x in xs]

    def _inverse_steps(self, batch: Batch, known) -> list[InverseColumn]:
        """The columns of the xs of a ``Batch``, all of one length, over its
        rows, each x = x's from ``known[x'.index]``, the column of x', by
        m_x = m_{x'} (b_s - v), in one stacked step.

        c_z b_s is c_{zs} + sum mu(y, z) c_y if zs > z is a basis element,
        (v + v^{-1}) c_z if zs < z, and across a wall (zs no basis element)
        the mu sum alone, or (v + v^{-1}) c_z if ``spherical``.  The sum
        runs over ys < y, and in the spherical flavor also over ys off the
        basis; mu(y, z) is the v^1 term of row y of the block of c_z.  In
        the stored signs, row z of the column of x' sends h^{z,x'} to row
        zs if zs is a basis element above z, and v h^{z,x'} to row z plus
        mu(y, z) h^{z,x'} to row y if there is a mu sum, else
        -v^{-1} h^{z,x'} to row z; the v^{-1} terms must cancel.  No entry
        of the column of x exceeds max|column of x'| (2 + sum |mu|); the
        step runs in exact ints when that bound, with the max and the sum
        taken over the whole chunk, reaches INT64_LIMIT.
        """
        group, xs = self.group, batch.xs
        pre = [group.prefix(x) for x in xs]
        prev = [known[p.index] for p, _ in pre]
        sizes = [len(c.rows) for c in prev]
        h = np.concatenate([c.coeffs for c in prev])
        nz = h.any(axis=1)
        slot = np.repeat(np.arange(len(xs)), sizes)[nz]
        z, h = np.concatenate([c.rows for c in prev])[nz], h[nz]
        s = np.array([t for _, t in pre], np.intp)[slot]
        zs = group.right[z, s]
        moves = (zs > z) & self.mask[zs]
        lifts = (zs > z) & (self.mask[zs] | (not self.spherical))
        ys, mus, src = self._mu_terms(z, s, lifts)
        dtype = object if max_abs(h) * (2 + exact_total(np.abs(
            mus))) >= INT64_LIMIT else np.int64
        if object in (h.dtype, dtype):  # int64 sums take narrow h as it is
            h = h.astype(dtype)
        at_y = batch.locate(slot[src], ys)
        if at_y.min(initial=0) < 0:
            x = xs[slot[src[np.argmax(at_y < 0)]]]
            raise InvariantError(f"a mu term at {x!r} leaves its rows")
        # column j holds exponent j - 1; each row z stays exactly once
        at_z = batch.locate(slot, z)
        dense = np.zeros((len(batch.ids), xs[0].length + 2), dtype=dtype)
        dense[at_z[lifts], 2:] = h[lifts]
        dense[at_z[~lifts], :-2] = -h[~lifts].astype(dtype)
        dense[batch.locate(slot[moves], zs[moves]), 1:-1] += h[moves]
        np.add.at(dense[:, 1:-1], at_y, mus.astype(dtype)[:, None] * h[src])
        low = np.flatnonzero(dense[:, 0])
        if len(low):
            y, x = group.elements[batch.ids[low[0]]], xs[batch.slot[low[0]]]
            raise InvariantError(
                f"inverse polynomial at ({y!r},{x!r}) has a v^-1 term")
        cols = [InverseColumn(r, p if dtype is object else narrow(p))
                for r, p in zip(batch.rows, batch.split(dense[:, 1:]))]
        for col in cols:
            col.coeffs.flags.writeable = False
        return cols

    def _mu_terms(self, z: np.ndarray, s: np.ndarray, lifts: np.ndarray):
        """(y, mu(y, z), k) for each z = z[k] with ``lifts[k]`` and each y
        of its mu sum under b_s, s = s[k], as arrays, from the flat store;
        a z is read from its canonical block the first time."""
        z, s, span = z[lifts], s[lifts], self._mu_span
        new = z[span[z, 1] < 0]
        if len(new):
            new = np.sort(new)
            new = new[np.diff(new, prepend=-1) != 0]
            slot, y, e, c = stack_terms(self.canonical_blocks(
                [self.group.elements[i] for i in new.tolist()]))
            one, size = np.flatnonzero(e == 1), self._mu_size
            end = size + np.cumsum(np.bincount(slot[one], minlength=len(new)))
            span[new, 0], span[new, 1] = np.r_[size, end[:-1]], end
            dtype = np.result_type(self._mu_value, c)
            if end[-1] > len(self._mu_y) or dtype != self._mu_value.dtype:
                grow = max(end[-1], 2 * len(self._mu_y)) - len(self._mu_y)
                self._mu_y = np.r_[self._mu_y, np.zeros(grow, np.intp)]
                self._mu_value = np.r_[self._mu_value.astype(dtype),
                                       np.zeros(grow, dtype)]
            self._mu_y[size:end[-1]], self._mu_value[size:end[-1]] = (
                y[one], c[one])
            self._mu_size = end[-1]
        count = span[z, 1] - span[z, 0]
        src = np.repeat(np.flatnonzero(lifts), count)
        at = np.arange(len(src)) + np.repeat(
            span[z, 0] - np.cumsum(count) + count, count)
        ys, mus = self._mu_y[at], self._mu_value[at]
        yss = self.group.right[ys, s.repeat(count)]
        keep = (yss < ys) | (self.spherical & ~self.mask[yss])
        return ys[keep], mus[keep], src[keep]

    def _check_columns(self, columns) -> None:
        """Raise InvariantError when a new column of the (x, column) pairs
        breaks a theorem, as the first such x alone raises it."""

    def kl_poly(self, y: Element, x: Element) -> LaurentPoly:
        """The coefficient of y in the canonical element of x: h_{y,x}, or
        m_{y,x} / n_{y,x} in a quotient."""
        return block_row(self.canonical_block(x), y.index)

    def inverse_kl_poly(self, y: Element, x: Element) -> LaurentPoly:
        """The inverse polynomial at (y, x); zero unless y <= x."""
        return block_row(self.inverse_column(x), y.index)

    def inversion_failures(self, xs):
        """For each x of ``xs`` in order, the ids y of its column where

            sum_z (-1)^{l(z)-l(y)} (inverse at (y, z)) (canonical at (z, x))

        over basis elements z in [y, x] differs from [y = x]: the
        Kronecker sums, a batched pass per chunk, computed on first query
        and kept."""
        return self._passes(self._kronecker, xs, lambda batch: (
            alternating_failures(
                self.group, batch, self.canonical_blocks(batch.xs),
                self.inverse_columns,
                "the inverse column of {0!r} has a row outside the rows of "
                "{1!r}")[0]))

    def shadow_failures(self, xs):
        """For each x of ``xs`` in order, the rows y of its stored inverse
        column where sum_z (-1)^{l(z)} (inverse at (z, x)) (canonical
        column of z) differs from (-1)^{l(x)} [y = x]: the shadow pass, a
        batched pass per chunk (``_shadow_pass``), computed on first query
        and kept."""
        return self._passes(self._shadow, xs,
                            lambda batch: self._shadow_pass(batch)[0])

    def _shadow_pass(self, batch: Batch, bars=None):
        """The failing rows of the shadow pass of a chunk, on its ``Batch``
        or on the columns' own rows where they differ, and per x whether it
        meets (b) and (c) of ``certificate_holds``, (b) by the same gathered
        terms over ``bars(xs)``; without ``bars`` every x meets them."""
        cols = self.inverse_columns(batch.xs)
        rows = [c.rows for c in cols]
        if not all(map(np.array_equal, rows, batch.rows)):
            batch = Batch(batch.xs, rows)
        failing, held = alternating_failures(
            self.group, batch, cols, self.canonical_blocks,
            "the block of {0!r} has a term outside the rows of {1!r}",
            None if bars is None else bars(batch.xs))
        if bars is not None:
            # (c): c_x is m_x plus terms c v^e m_y, 1 <= e <= l(x) - l(y)
            slot, y, e, values = stack_terms(self.canonical_blocks(batch.xs))
            top, lengths = batch.ids[batch.top][slot], self.group.lengths
            good = np.where(y == top, (e == 0) & (values == 1), (
                batch.locate(slot, y) >= 0) & (e >= 1) & (
                    e <= lengths[top] - lengths[y]))
            n = len(batch.xs)
            held &= (np.bincount(slot[y == top], minlength=n) == 1) & (
                np.bincount(slot[~good], minlength=n) == 0)
        return failing, held

    def _passes(self, memo, xs, run, width=lambda x: x.length + 1):
        """``memo[x.index]`` for each x of ``xs`` in order, the missing
        ones by ``run`` over ``batched`` chunks, the column of x ``width(x)``
        cells a row, stored as they are read."""
        todo = batched([x for x in dict.fromkeys(xs) if x.index not in memo],
                       self.column_ids, width, run)
        for x in xs:
            if x.index not in memo:
                memo[x.index] = next(todo)[1]
            yield memo[x.index]

    def columns_hold(self) -> bool:
        """Whether every stored column, of a basis element x, has the rows
        ``column_ids(x)`` and at most l(x) + 1 exponents: the one rule by
        which the checks that read the stored columns trust them.  It is
        decided once per stored column object, so a column stored anew is
        checked anew."""
        elements, held = self.group.elements, self._held
        for x, c in self._inv_cols.items():
            if held.get(x) is not c:
                if not (c.coeffs.shape[1] <= elements[x].length + 1 and
                        np.array_equal(c.rows, self.column_ids(elements[x]))):
                    return False
                held[x] = c
        return True

    def inversion_holds(self) -> bool:
        """Whether the inversion identity holds on the whole basis, by one
        shadow pass: no failing row or error, and the stored columns hold
        (``columns_hold``).  Then the columns are triangular with
        exponents in [0, l(x) - l(z)], so their inverse, the canonical
        blocks, is too, and the Kronecker sums meet no stray term and
        vanish."""
        try:
            self.canonical_blocks(self.basis)   # in batches, before mu reads
            self.inverse_columns(self.basis)
            return not any(self.shadow_failures(self.basis)) \
                and self.columns_hold()
        except Exception:       # the Kronecker sums word the error
            return False

    def certificate_holds(self, bars) -> bool:
        """Whether the canonical blocks are the ones the bar solve over the
        blocks of bar(m_x), ``bars(xs)`` for xs, returns; decided per chunk
        on the shadow pass, whose failing rows it keeps.  It holds when no
        error is raised and, for every basis element x,

        (a) the inversion identity holds (``inversion_holds``);
        (b) sum_z (-1)^{l(z)} bar(h^{z,x}) c_z = (-1)^{l(x)} bar(m_x), with
            no term of bar(m_x) off the rows of x or the exponents
            [-l(x), l(x)];
        (c) bar(m_x) is m_x on its diagonal, and c_x is m_x plus terms
            c v^e m_z with 1 <= e <= l(x) - l(z).

        Only the second half of (c) is checked: at row x only z = x adds
        to (a) and (b), so (a) gives h^{x,x} = 1 and then (b) the diagonal.
        Why that is enough: bar is semilinear and sends m_z to the block of
        bar(m_z), so applied to (a) it gives sum_z (-1)^{l(z)} bar(h^{z,x})
        bar(c_z) = (-1)^{l(x)} bar(m_x).  Subtracting (b), sum_z
        (-1)^{l(z)} bar(h^{z,x}) (bar(c_z) - c_z) = 0 for every x: a
        unitriangular system, so bar(c_z) = c_z for every z.  The solve
        (``bar_invariant_blocks``) then returns these blocks exactly, by
        induction from the top level: where its rows above y agree with
        c_x, its sum at y is c_y - bar(c_y), c_y the coefficient of m_y in
        c_x, since bar(c_x) = c_x and bar(m_y) is m_y on its diagonal, and
        it reads off c_y, its part of positive degree, within its window by
        (c).  When the blocks of bar(m_z) are right, the blocks are thus
        the canonical basis, which is unique (Kazhdan-Lusztig, Invent.
        Math. 53, 1979).
        """
        try:
            self.canonical_blocks(self.basis)
            self.inverse_columns(self.basis)
            bars(self.basis)        # in batches, before the chunks read them
            for x, (failing, held) in zip(self.basis, self._passes(
                    {}, self.basis, lambda batch: list(zip(
                        *self._shadow_pass(batch, bars))),
                    lambda x: 3 * x.length + 2)):
                self._shadow[x.index] = failing
                if failing or not held:
                    return False
            return self.inversion_holds()
        except Exception:
            return False

    def check_inversion_identity(self, y: Element, x: Element) -> bool:
        """The Kronecker sum at (y, x): 1 when y = x and 0 otherwise, read
        from ``inversion_failures``."""
        return y.index not in next(self.inversion_failures([x]))

    def build_all(self) -> None:
        """Materialise the canonical block and the inverse column of every
        basis element.

        Walks in increasing id order (= increasing length), so every
        dependency is ready before first use.  Afterwards every query this
        class serves is a pure read.
        """
        self.canonical_blocks(self.basis)
        self.inverse_columns(self.basis)
