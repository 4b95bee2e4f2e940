"""
The integer-id block kernel behind the Hecke and parabolic tables.

Every table is keyed by ``Element.index``; ids follow length, then
ShortLex, so "the top remaining term" of a triangular solve is the
largest id.  A column is a sorted id array (the downset of x, or its
minimal coset representatives) plus integer coefficients: a sparse
``Block`` of nonzero terms, or a dense array whose row i, column e holds
the coefficient of v^e.  Three descending passes run on them:

- ``bar_invariant_block``: the canonical element of x from the blocks of
  bar(m_z), the bar-invariance route;
- ``solve_inverse_column``: the inverse polynomials of x, by peeling the
  canonical elements off m_x from the top;
- ``kronecker_failures``: the inversion identity for a whole column.

``ColumnTable`` keeps the inverse columns and inversion checks of one
module over these passes, once for the regular module and its quotients.

Arithmetic is int64 under a running bound on coefficient size.  A column
whose bound would reach 2^62 is redone by the same code with
``dtype=object`` (exact Python ints), so no result ever depends on
wrapping.  Stored values move to a narrower integer dtype only after an
exact range check.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, NamedTuple

import numpy as np

from .coxeter import Element, GroupTable
from .laurent import LaurentPoly

_ZERO = LaurentPoly.zero()

#: an int64 pass gives a column up when its coefficient bound reaches this
INT64_LIMIT = 1 << 62


class InvariantError(RuntimeError):
    """A mathematically guaranteed internal invariant failed to hold."""


class _Overflow(Exception):
    """An int64 pass could have produced a coefficient of INT64_LIMIT."""


class Block(NamedTuple):
    """The nonzero coefficients of one module element, keyed by element id.

    Term k is ``values[k]`` v^``exps[k]`` in the row of element
    ``rows[at[k]]``; ``rows`` is sorted and the terms are sorted by row.
    Only nonzero terms are kept: on a long affine cap almost every row of
    b_x is a single monomial, and a dense block would grow with the cube
    of the cap.  ``row_norm`` is the largest sum of absolute values over
    one row, as an exact int.

    Canonical elements have exponents in [0, l(x)]; bar(delta_x) and its
    projections to a quotient have exponents in [-l(x), l(x)].
    """

    rows: np.ndarray
    at: np.ndarray
    exps: np.ndarray
    values: np.ndarray
    row_norm: int

    def row_slices(self) -> list[slice]:
        """The slice of the terms of each row, in row order."""
        bounds = np.searchsorted(self.at,
                                 np.arange(len(self.rows) + 1)).tolist()
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def exact_array(values: list[int]) -> np.ndarray:
    """The values in the narrowest integer dtype holding them all, or in
    dtype=object (exact Python ints) when they reach INT64_LIMIT."""
    if values and max(-min(values), max(values)) >= INT64_LIMIT:
        return np.array(values, dtype=object)
    return narrow(np.array(values, dtype=np.int64))


def narrow(block: np.ndarray) -> np.ndarray:
    """An int64 array in the narrowest dtype that holds its range exactly."""
    lo, hi = (int(block.min()), int(block.max())) if block.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return block.astype(dtype)
    return block


def max_abs(block: np.ndarray) -> int:
    """The largest absolute value in the array, as an exact int."""
    return max(-int(block.min()), int(block.max())) if block.size else 0


def dense_block(ids: np.ndarray, dense: np.ndarray, offset: int = 0) -> Block:
    """The nonzero terms of ``dense``, whose row i is element ``ids[i]``
    and whose column j is the exponent j - offset."""
    i, j = np.nonzero(dense)
    keep, at = np.unique(i, return_inverse=True)
    values = dense[i, j]
    values = (exact_array(values.tolist()) if values.dtype == object
              else narrow(values.astype(np.int64)))
    sums = np.abs(dense[keep].astype(object if dense.dtype == object
                                     else np.int64))
    if sums.dtype != object and max_abs(sums) * dense.shape[1] >= INT64_LIMIT:
        sums = sums.astype(object)
    norm = int(sums.sum(axis=1).max()) if len(keep) else 0
    return Block(ids[keep], at.astype(np.intp), (j - offset).astype(np.intp),
                 values, norm)


def block_terms(group: GroupTable, block: Block) -> dict[Element, LaurentPoly]:
    """Decode a block to Element -> LaurentPoly."""
    polys: list[dict[int, int]] = [{} for _ in range(len(block.rows))]
    for a, e, c in zip(block.at.tolist(), block.exps.tolist(),
                       block.values.tolist()):
        polys[a][e] = c
    elements = group.elements
    return {elements[y]: LaurentPoly(p)
            for y, p in zip(block.rows.tolist(), polys)}


def block_row(block: Block, y: int) -> LaurentPoly:
    """The coefficient of the element with id y, decoded."""
    pos = int(np.searchsorted(block.rows, y))
    if pos == len(block.rows) or block.rows[pos] != y:
        return _ZERO
    lo, hi = np.searchsorted(block.at, [pos, pos + 1]).tolist()
    return LaurentPoly(zip(block.exps[lo:hi].tolist(),
                           block.values[lo:hi].tolist()))


def row_poly(row: np.ndarray) -> LaurentPoly:
    """One row of a dense block with exponents from 0."""
    return LaurentPoly({e: c for e, c in enumerate(row.tolist()) if c})


class InverseColumn(Mapping):
    """Read-only mapping y -> inverse polynomial over one stored column.

    Rows are the ids of the column; only nonzero rows are keys.  Values
    are decoded from the block on first access and cached, so a caller
    that reads every entry pays for the ``LaurentPoly`` values once and a
    block-level reader (the scans) never pays for them.
    """

    __slots__ = ("group", "rows", "coeffs", "_cache")

    def __init__(self, group: GroupTable, rows: np.ndarray,
                 coeffs: np.ndarray):
        self.group = group
        self.rows = rows
        self.coeffs = coeffs
        self._cache: dict[int, LaurentPoly] = {}

    def get(self, y: Element, default=None):
        got = self._cache.get(y.index)
        if got is None:
            pos = int(np.searchsorted(self.rows, y.index))
            if pos < len(self.rows) and self.rows[pos] == y.index:
                got = row_poly(self.coeffs[pos])
            else:
                got = _ZERO
            self._cache[y.index] = got
        return got if got else default

    def __getitem__(self, y: Element) -> LaurentPoly:
        got = self.get(y)
        if got is None:
            raise KeyError(y)
        return got

    def _nonzero_positions(self) -> list[int]:
        return np.flatnonzero(self.coeffs.any(axis=1)).tolist()

    def __iter__(self):
        elements = self.group.elements
        for pos in self._nonzero_positions():
            yield elements[int(self.rows[pos])]

    def __len__(self) -> int:
        return len(self._nonzero_positions())


# ----------------------------------------------------------------------
# the descending passes
# ----------------------------------------------------------------------

def row_positions(ids: np.ndarray, x: Element) -> np.ndarray:
    """Position of each id in the sorted ``ids`` (all <= x.index), -1 for
    any other id; ``take(..., mode="clip")`` on the result maps every id
    above x.index to the -1 in its last slot."""
    where = np.full(x.index + 2, -1, dtype=np.intp)
    where[ids] = np.arange(len(ids))
    return where


def add_scaled(acc: np.ndarray, where: np.ndarray, x: Element, z: Element,
               block: Block, shifts: list[int], coefs: np.ndarray,
               op=np.add) -> None:
    """acc[row, exp + shifts[k]] = op(that, coefs[k] * value), over every
    term of ``block`` (which belongs to z) and every k.

    ``coefs`` has the dtype of ``acc``; a term in a row that is not a row
    of ``acc`` raises InvariantError.
    """
    pos = where.take(block.rows, mode="clip")
    if pos.min() < 0:
        raise InvariantError(
            f"the block of {z!r} has a term outside the rows of {x!r}")
    pos = pos[block.at]
    # one shift at a time, so no entry is hit twice by one update;
    # coefs[k:k + 1] (not coefs[k]) keeps the product in acc's dtype
    for k, shift in enumerate(shifts):
        cells = pos, block.exps + shift
        acc[cells] = op(acc[cells], block.values * coefs[k:k + 1])


def scaled_sum(x: Element, ids: np.ndarray, width: int, offset: int,
               terms) -> np.ndarray:
    """sum_k coefs[k] v^shifts[k] times ``block`` (the block of z) over
    every (z, block, shifts, coefs) in ``terms``, as a dense len(ids) x
    width array over the sorted ``ids`` (x last) whose column j holds
    exponent j - offset.  No entry exceeds sum |coefs| * row_norm, the
    bound that picks int64, or exact ints at INT64_LIMIT.
    """
    bound = sum(sum(map(abs, coefs)) * block.row_norm
                for _, block, _, coefs in terms)
    dtype = np.int64 if bound < INT64_LIMIT else object
    where = row_positions(ids, x)
    acc = np.zeros((len(ids), width), dtype=dtype)
    for z, block, shifts, coefs in terms:
        add_scaled(acc, where, x, z, block, [s + offset for s in shifts],
                   np.array(coefs, dtype=dtype))
    return acc


def _exact(solve, *args) -> np.ndarray:
    """``solve(*args, dtype, limit)`` in int64 under INT64_LIMIT, narrowed;
    redone with exact Python ints if its bound would reach the limit."""
    try:
        return narrow(solve(*args, np.int64, INT64_LIMIT))
    except _Overflow:
        return solve(*args, object, None)


def _grow(bound: int, limit: int | None, coef: np.ndarray, norm: int) -> int:
    """The entry bound after adding coef * (a block of row norm ``norm``):
    one row of the block hits an entry at most once per coefficient."""
    if limit is None:
        return bound
    values = coef.tolist()
    bound += max(-min(values), max(values)) * norm
    if bound >= limit:
        raise _Overflow
    return bound


def _bar_solve(group: GroupTable, x: Element, ids: np.ndarray,
               bar_of: Callable[[Element], Block], dtype, limit):
    """The canonical element of x over ``ids``, as a dense
    len(ids) x (l(x) + 1) array.

    Write the element as sum_z n_z m_z with n_x = 1.  Bar-invariance says
    that for every row y, a_y = sum_{z > y} bar(n_z) r_{y,z} equals
    n_y - bar(n_y), where bar(m_z) = sum_y r_{y,z} m_y; since n_y lies in
    vZ[v], a_y is antisymmetric and n_y is its part of positive degree.
    ``acc`` holds these sums for every row over the exponents
    [-l(x), l(x)]: rows are taken from the top, and once a row's n_y is
    known, bar(n_y) times the block of bar(m_y) is added into all rows.
    At the end ``acc`` is bar of the result, which must equal it.
    """
    elements = group.elements
    rows = ids.tolist()
    top = x.length
    where = row_positions(ids, x)
    acc = np.zeros((len(ids), 2 * top + 1), dtype=dtype)
    out = np.zeros((len(ids), top + 1), dtype=dtype)
    out[-1, 0] = 1
    shifts, coef = [top], out[-1, :1]
    bound = 0
    for i in range(len(rows) - 1, -1, -1):
        z = elements[rows[i]]
        if i < len(rows) - 1:
            a = acc[i]
            if (a[top:] != -a[top::-1]).any():
                raise InvariantError(
                    f"bar-invariance solve at {x!r}: the coefficient of "
                    f"{z!r} is not antisymmetric")
            exps = a[top + 1:].nonzero()[0] + 1
            if not len(exps):
                continue
            if exps[-1] > top - z.length:
                raise InvariantError(
                    f"bar-invariance solve at {x!r}: the coefficient of "
                    f"{z!r} has a term above degree {top - z.length}")
            coef = a[top + exps]
            out[i, exps] = coef
            shifts = (top - exps).tolist()
        r = bar_of(z)
        bound = _grow(bound, limit, coef, r.row_norm)
        add_scaled(acc, where, x, z, r, shifts, coef)
    if acc[:, :top].any() or (acc[:, top:] != out).any():
        raise InvariantError(
            f"bar-invariance solve produced a non-self-dual element at {x!r}")
    return out


def bar_invariant_block(group: GroupTable, x: Element, ids: np.ndarray,
                        bar_of: Callable[[Element], Block]) -> Block:
    """The bar-invariant element m_x + sum_{y < x} vZ[v] m_y over the sorted
    ``ids`` (x last), given ``bar_of(z)``, the block of bar(m_z).

    Raises InvariantError when the pass finds no such element.
    """
    out = _exact(_bar_solve, group, x, ids, bar_of)
    if (ids[-1] != x.index or out[-1, 0] != 1 or out[-1, 1:].any()
            or out[:-1, 0].any()):
        raise InvariantError(
            f"canonical element at {x!r} not unitriangular over vZ[v]")
    return dense_block(ids, out)


def _inverse_solve(group: GroupTable, x: Element, ids: np.ndarray,
                   block_of: Callable[[Element], Block], dtype, limit):
    """The inverse column of x over ``ids``, as a dense
    len(ids) x (l(x) + 1) array.

    Peels the expansion of m_x over the canonical basis from the top: the
    id-largest remaining term m_z has coefficient exactly
    (-1)^{l(x)-l(z)} times the inverse polynomial at (z, x), because every
    longer canonical element has already been subtracted.
    """
    elements = group.elements
    rows = ids.tolist()
    where = row_positions(ids, x)
    remainder = np.zeros((len(ids), x.length + 1), dtype=dtype)
    remainder[-1, 0] = 1
    out = np.zeros_like(remainder)
    bound = 1
    for i in range(len(rows) - 1, -1, -1):
        c = remainder[i]
        exps = c.nonzero()[0]
        if not len(exps):
            continue
        z = elements[rows[i]]
        if (x.length - z.length) % 2:
            np.negative(c, out=out[i])
        else:
            out[i] = c
        shifts = exps.tolist()
        if shifts[-1] + z.length > x.length:
            raise InvariantError(
                f"inverse polynomial at ({z!r},{x!r}) has a term outside "
                f"the window [0, {x.length - z.length}]: {row_poly(out[i])}")
        coef = c[exps]
        b = block_of(z)
        bound = _grow(bound, limit, coef, b.row_norm)
        add_scaled(remainder, where, x, z, b, shifts, coef, np.subtract)
    return out


def solve_inverse_column(group: GroupTable, x: Element, ids: np.ndarray,
                         block_of: Callable[[Element], Block]) -> InverseColumn:
    """The inverse polynomials at (y, x) for every y in the sorted ``ids``
    (x last), given ``block_of(z)``, the canonical element of z."""
    coeffs = _exact(_inverse_solve, group, x, ids, block_of)
    coeffs.flags.writeable = False
    return InverseColumn(group, ids, coeffs)


def kronecker_failures(group: GroupTable, x: Element, ids: np.ndarray,
                       block: Block,
                       column_of: Callable[[Element], InverseColumn]
                       ) -> frozenset[int]:
    """The ids y among ``ids`` (the rows of the column of x) at which

        sum_z (-1)^{l(z)-l(y)} h^{y,z} h_{z,x}

    differs from the Kronecker delta, h_{z,x} read from ``block`` (the
    canonical element of x) and h^{y,z} from ``column_of(z)``.  One dense
    sum per column; its bound is checked before choosing int64.
    """
    elements = group.elements
    top = x.length
    where = row_positions(ids, x)
    rows = block.rows.tolist()
    slices = block.row_slices()
    values = block.values.tolist()
    exps = block.exps.tolist()
    columns = [column_of(elements[z]) for z in rows]
    bound = sum(sum(abs(c) for c in values[sl]) * max_abs(col.coeffs)
                for sl, col in zip(slices, columns))
    dtype = np.int64 if bound < INT64_LIMIT else object
    total = np.zeros((len(ids), top + 1), dtype=dtype)
    for z, sl, col in zip(rows, slices, columns):
        pos = where.take(col.rows, mode="clip")
        if pos.min() < 0:
            raise InvariantError(
                f"the inverse column of {elements[z]!r} has a row outside "
                f"the rows of {x!r}")
        coeffs = col.coeffs.astype(dtype)
        if elements[z].length % 2:
            coeffs = -coeffs
        width = coeffs.shape[1]
        for e, c in zip(exps[sl], values[sl]):
            if not 0 <= e <= top + 1 - width:
                raise InvariantError(
                    f"coefficient of {elements[z]!r} at {x!r} has a term "
                    f"outside the window [0, {top + 1 - width}]")
            total[pos, e:e + width] += coeffs * c
    lengths = np.array([elements[y].length for y in ids.tolist()])
    total[lengths % 2 == 1] *= -1
    total[-1, 0] -= 1
    return frozenset(ids[total.any(axis=1)].tolist())


class ColumnTable:
    """The inverse columns of one module over its canonical basis, and the
    inversion identity on them: the core of ``KLTable`` (the regular
    module) and ``ParabolicKLTable`` (a quotient).

    A subclass supplies ``column_ids(x)``, the sorted ids of the basis
    elements below x (x last), and ``canonical_block(x)``, the block of
    the canonical element of x; it may check each new column in
    ``_check_column``.  ``basis`` lists the elements indexing the basis,
    in id order.
    """

    def __init__(self, group: GroupTable, basis):
        self.group = group
        self.basis = basis
        self._inv_cols: dict[int, InverseColumn] = {}
        self._kronecker: dict[int, frozenset[int]] = {}

    def inverse_column(self, x: Element) -> InverseColumn:
        """The inverse polynomials at (y, x) for every basis element
        y <= x, by the descending solve over the canonical blocks."""
        got = self._inv_cols.get(x.index)
        if got is None:
            got = solve_inverse_column(self.group, x, self.column_ids(x),
                                       self.canonical_block)
            self._check_column(x, got)
            self._inv_cols[x.index] = got
        return got

    def _check_column(self, x: Element, col: InverseColumn) -> None:
        """Raise InvariantError when a new column breaks a theorem."""

    def kl_poly(self, y: Element, x: Element) -> LaurentPoly:
        """The coefficient of y in the canonical element of x: h_{y,x}, or
        m_{y,x} / n_{y,x} in a quotient."""
        return block_row(self.canonical_block(x), y.index)

    def inverse_kl_poly(self, y: Element, x: Element) -> LaurentPoly:
        """The inverse polynomial at (y, x); zero unless y <= x."""
        return self.inverse_column(x).get(y, _ZERO)

    def check_inversion_identity(self, y: Element, x: Element) -> bool:
        """The Kronecker sum over basis elements z in [y, x] of the two
        families.

        sum_z (-1)^{l(z)-l(y)} (inverse at (y, z)) (canonical at (z, x))
        equals 1 when y = x and 0 otherwise.  The sums of a whole column
        are computed once, on its first query, and kept as the set of rows
        where they fail.
        """
        failures = self._kronecker.get(x.index)
        if failures is None:
            failures = self._kronecker[x.index] = kronecker_failures(
                self.group, x, self.column_ids(x), self.canonical_block(x),
                self.inverse_column)
        return y.index not in failures

    def build_all(self) -> None:
        """Materialise the canonical block and the inverse column of every
        basis element.

        Walks in increasing id order (= increasing length), so every
        dependency is ready before first use.  Afterwards every query this
        class serves is a pure read.
        """
        for x in self.basis:
            self.canonical_block(x)
        for x in self.basis:
            self.inverse_column(x)
