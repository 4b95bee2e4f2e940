"""
The integer-id block kernel behind the Hecke and parabolic tables.

Every table is keyed by ``Element.index``; ids follow length, then
ShortLex, so "the top remaining term" of a triangular solve is the
largest id.  A column is a sorted id array (the downset of x, or its
minimal coset representatives) plus integer coefficients: a sparse
``Block`` of nonzero terms, or a dense array whose row i, column e holds
the coefficient of v^e.  Two descending passes run on them:

- ``bar_invariant_block``: the canonical element of x from the blocks of
  bar(m_z), the bar-invariance route;
- ``kronecker_failures``: the inversion identity for a whole column.

``ColumnTable``, the table core of the regular module and its quotients,
builds the inverse column of x = x's from the column of x' by one step of
the recursion m_x = m_{x'} (b_s - v), and checks the inversion identity.

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
        coeffs.flags.writeable = False
        self._cache: dict[int, LaurentPoly] = {}

    def get(self, y: Element, default=None):
        got = self._cache.get(y.index)
        if got is None:
            pos = int(np.searchsorted(self.rows, y.index))
            found = pos < len(self.rows) and self.rows[pos] == y.index
            got = self._cache[y.index] = (row_poly(self.coeffs[pos])
                                          if found else _ZERO)
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
    rows, exps, values = (block.rows.tolist(), block.exps.tolist(),
                          block.values.tolist())
    slices = block.row_slices()
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
    ``_check_column``.  ``basis`` lists the basis elements in id order,
    ``mask`` flags their ids, and ``spherical`` picks the wall rule.
    """

    def __init__(self, group: GroupTable, basis, mask: np.ndarray,
                 spherical: bool = False):
        self.group = group
        self.basis = basis
        self.mask = mask
        self.spherical = spherical
        self._inv_cols: dict[int, InverseColumn] = {0: InverseColumn(
            group, np.zeros(1, np.intp), np.ones((1, 1), np.int8))}
        self._mu: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._kronecker: dict[int, frozenset[int]] = {}

    def inverse_column(self, x: Element) -> InverseColumn:
        """The inverse polynomials at (y, x) for every basis element y <= x,
        by steps up from the longest stored prefix of x; only the column of
        x is stored, and ``build_all`` asks in id order."""
        got = self._inv_cols.get(x.index)
        if got is None:
            group, elements = self.group, self.group.elements
            chain = group.missing_prefixes(x, self._inv_cols)
            got = self._inv_cols[group.prefix(elements[chain[0]])[0].index]
            for i in chain:
                got = self._inverse_step(elements[i], got)
            self._check_column(x, got)
            self._inv_cols[x.index] = got
        return got

    def _inverse_step(self, x: Element, prev: InverseColumn) -> InverseColumn:
        """The column of x = x's from ``prev``, the column of x', by
        m_x = m_{x'} (b_s - v).

        c_z b_s is c_{zs} + sum mu(y, z) c_y if zs > z is a basis element,
        (v + v^{-1}) c_z if zs < z, and across a wall (zs no basis element)
        the mu sum alone, or (v + v^{-1}) c_z if ``spherical``.  The sum
        runs over ys < y, and in the spherical flavor also over ys off the
        basis; mu(y, z) is the v^1 term of row y of the block of c_z.  In
        the stored signs, row z of ``prev`` sends h^{z,x'} to row zs if zs
        is a basis element above z, and v h^{z,x'} to row z plus mu(y, z)
        h^{z,x'} to row y if there is a mu sum, else -v^{-1} h^{z,x'} to
        row z; the v^{-1} terms must cancel.  No entry exceeds max|prev|
        (2 + sum |mu|), the bound that picks int64, or exact ints at
        INT64_LIMIT.
        """
        group = self.group
        s = group.prefix(x)[1]
        nz = np.flatnonzero(prev.coeffs.any(axis=1))
        z = prev.rows[nz]
        zs = group.right[z, s]
        moves = (zs > z) & self.mask[zs]
        lifts = (zs > z) & (self.mask[zs] | (not self.spherical))
        ys, mus, src = self._mu_terms(z[lifts].tolist(), s)
        bound = max_abs(prev.coeffs) * (2 + sum(map(abs, mus.tolist())))
        dtype = np.int64 if bound < INT64_LIMIT else object
        h = prev.coeffs[nz].astype(dtype)
        ids = self.column_ids(x)
        where = row_positions(ids, x)
        at_z, at_zs, at_y = where[z], where[zs[moves]], where.take(
            ys, mode="clip")
        if at_y.min(initial=0) < 0:
            raise InvariantError(f"a mu term at {x!r} leaves its rows")
        # column j holds exponent j - 1; each row z stays exactly once
        dense = np.zeros((len(ids), x.length + 2), dtype=dtype)
        dense[at_z[lifts], 2:] = h[lifts]
        dense[at_z[~lifts], :-2] = -h[~lifts]
        dense[at_zs, 1:-1] += h[moves]
        np.add.at(dense[:, 1:-1], at_y,
                  mus.astype(dtype)[:, None] * h[lifts][src])
        if dense[:, 0].any():
            y = group.elements[ids[np.flatnonzero(dense[:, 0])[0]]]
            raise InvariantError(
                f"inverse polynomial at ({y!r},{x!r}) has a v^-1 term")
        return InverseColumn(group, ids, dense[:, 1:] if dtype is object
                             else narrow(dense[:, 1:]))

    def _mu_terms(self, zs: list[int], s: int):
        """(y, mu(y, z), k) for each z = zs[k] and each y of its mu sum
        under b_s, as arrays; the mu entries of z are read once."""
        for z in zs:
            if z not in self._mu:
                block = self.canonical_block(self.group.elements[z])
                one = block.exps == 1
                self._mu[z] = block.rows[block.at[one]], block.values[one]
        parts = [self._mu[z] for z in zs] or [(np.zeros(0, np.intp),) * 2]
        ys, mus = (np.concatenate(p) for p in zip(*parts))
        src = np.repeat(np.arange(len(parts)), [len(p[0]) for p in parts])
        yss = self.group.right[ys, s]
        keep = (yss < ys) | (self.spherical & ~self.mask[yss])
        return ys[keep], mus[keep], src[keep]

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
