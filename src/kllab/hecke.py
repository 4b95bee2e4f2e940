"""
The Hecke algebra of a Coxeter system, in its standard basis.

Elements are sparse vectors over the interned group elements: a map
Element -> LaurentPoly giving the expansion in the basis {delta_x}.  The
defining relations are the quadratic relation

    (delta_s + v)(delta_s - v^{-1}) = 0

and length-additive products delta_x delta_y = delta_{xy}.  The canonical
self-dual basis {b_x} (normalised so b_s = delta_s + v) exists and is
unique with bar(b_x) = b_x and b_x = delta_x + sum of vZ[v]-multiples of
lower delta_y; its coefficients are the polynomials h_{y,x}, and the
expansion of delta_x back in the b-basis carries the inverse polynomials
h^{y,x} with alternating signs:

    b_x = sum_y h_{y,x} delta_y
    delta_x = sum_y (-1)^{l(x)-l(y)} h^{y,x} b_y

``KLTable`` computes b_x two independent ways: the production route is the
length recursion b_{x's} = b_{x'} b_s - sum mu(y,x') b_y over y with ys < y,
and the oracle route solves for the unique bar-invariant unitriangular
element degree by degree.  Inverse polynomials come from a descending
triangular solve, one column per x.  Everything is memoized and all tables
are built in increasing length order, so dependencies always exist.

The inverse solve runs on integer arrays keyed by ``Element.index``.
Each b_x is kept once as its nonzero terms (``Block``); each inverse column
is a dense block over the sorted ids of downset(x), row i, column e holding
the coefficient of v^e, for e in [0, l(x)] (``InverseColumn``).
Arithmetic is int64 under a running bound on coefficient size; a column
whose bound would reach 2^62 is redone with exact Python ints
(``dtype=object``), so no result ever depends on wrapping.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .coxeter import Element, GroupTable, LEFT, RIGHT
from .laurent import LaurentPoly

_V = LaurentPoly.v()
_VINV = LaurentPoly.v(-1)
_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})
_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})
_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()


class InvariantError(RuntimeError):
    """A mathematically guaranteed internal invariant failed to hold."""


class HeckeElt:
    """A sparse standard-basis vector: Element -> LaurentPoly."""

    __slots__ = ("table", "terms")

    def __init__(self, table: GroupTable, terms: dict[Element, LaurentPoly]):
        self.table = table
        self.terms = {x: p for x, p in terms.items() if p}

    @staticmethod
    def zero(table: GroupTable) -> "HeckeElt":
        return HeckeElt(table, {})

    @staticmethod
    def delta(table: GroupTable, x: Element) -> "HeckeElt":
        return HeckeElt(table, {x: _ONE})

    def coefficient(self, x: Element) -> LaurentPoly:
        return self.terms.get(x, LaurentPoly.zero())

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        out = dict(self.terms)
        for x, p in other.terms.items():
            q = out.get(x)
            s = p if q is None else q + p
            if s:
                out[x] = s
            elif x in out:
                del out[x]
        return HeckeElt(self.table, out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        out = dict(self.terms)
        for x, p in other.terms.items():
            q = out.get(x)
            s = -p if q is None else q - p
            if s:
                out[x] = s
            elif x in out:
                del out[x]
        return HeckeElt(self.table, out)

    def scaled(self, p: LaurentPoly) -> "HeckeElt":
        if not p:
            return HeckeElt.zero(self.table)
        return HeckeElt(self.table, {x: q * p for x, q in self.terms.items()})

    def top_term(self) -> tuple[Element, LaurentPoly]:
        """The term with the (length, word)-largest index."""
        x = max(self.terms, key=Element.sort_key)
        return x, self.terms[x]

    def sorted_terms(self) -> list[tuple[Element, LaurentPoly]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElt) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "HeckeElt(0)"
        parts = [f"({p})*d[{x!r}]" for x, p in self.sorted_terms()]
        return "HeckeElt(" + " + ".join(parts) + ")"


def mult_delta_gen(h: HeckeElt, s: int, side: str = RIGHT) -> HeckeElt:
    """Multiply by the standard generator delta_s on the given side.

    Per term: delta_x delta_s = delta_{xs} when xs is longer, and
    delta_{xs} + (v^{-1} - v) delta_x when xs is shorter (and mirrored on
    the left).
    """
    table = h.table
    out: dict[Element, LaurentPoly] = {}
    for x, p in h.terms.items():
        y = table.mult_gen(x, s, side)
        _accum(out, y, p)
        if y.length < x.length:
            _accum(out, x, p * _VINV_MINUS_V)
    return HeckeElt(table, out)


def mult_b_gen(h: HeckeElt, s: int, side: str = RIGHT) -> HeckeElt:
    """Multiply by b_s = delta_s + v on the given side.

    Per term: delta_x b_s = delta_{xs} + v delta_x when xs is longer, and
    delta_{xs} + v^{-1} delta_x when xs is shorter.
    """
    table = h.table
    out: dict[Element, LaurentPoly] = {}
    for x, p in h.terms.items():
        y = table.mult_gen(x, s, side)
        _accum(out, y, p)
        _accum(out, x, p * (_V if y.length > x.length else _VINV))
    return HeckeElt(table, out)


def _accum(store: dict[Element, LaurentPoly], x: Element, p: LaurentPoly):
    q = store.get(x)
    s = p if q is None else q + p
    if s:
        store[x] = s
    elif x in store:
        del store[x]


def bar_delta(table: GroupTable, x: Element) -> HeckeElt:
    """bar(delta_x), memoized on the group table.

    Since delta_s is invertible with delta_s^{-1} = delta_s + v - v^{-1}
    and bar is multiplicative, bar(delta_x) for a reduced word x = x's is
    bar(delta_{x'}) * (delta_s + v - v^{-1}), built along canonical-word
    prefixes (which are themselves canonical words), shortest first.
    """
    memo: dict[int, HeckeElt] = getattr(table, "_hecke_bar_delta", None)
    if memo is None:
        memo = table._hecke_bar_delta = {}
    got = memo.get(x.index)
    if got is not None:
        return got
    missing = [x]
    while missing[-1].word:
        prefix = table.element(missing[-1].word[:-1])
        if prefix.index in memo:
            break
        missing.append(prefix)
    for el in reversed(missing):
        if not el.word:
            out = HeckeElt.delta(table, el)
        else:
            prev = memo[table.element(el.word[:-1]).index]
            out = (mult_delta_gen(prev, el.word[-1], RIGHT)
                   + prev.scaled(_V_MINUS_VINV))
        memo[el.index] = out
    return memo[x.index]


def bar_element(h: HeckeElt) -> HeckeElt:
    """The bar involution: v -> v^{-1} on coefficients, delta_x -> bar(delta_x)."""
    out = HeckeElt.zero(h.table)
    for x, p in h.terms.items():
        out = out + bar_delta(h.table, x).scaled(p.bar())
    return out


class Block(NamedTuple):
    """The nonzero coefficients of b_x, keyed by element id.

    Term k is ``values[k]`` v^``exps[k]`` in the row of element
    ``rows[at[k]]``; ``rows`` is sorted.  Only nonzero terms are kept: on
    a long affine cap almost every row of b_x is a single monomial, and a
    dense block would grow with the cube of the cap.  ``row_norm`` is the
    largest sum of absolute values over one row, as an exact int.
    """

    rows: np.ndarray
    at: np.ndarray
    exps: np.ndarray
    values: np.ndarray
    row_norm: int

    def dense(self, width: int) -> np.ndarray:
        """The coefficients as a len(rows) x width array."""
        out = np.zeros((len(self.rows), width), dtype=self.values.dtype)
        out[self.at, self.exps] = self.values
        return out


#: the int64 solve gives a column up when its coefficient bound reaches this
_INT64_LIMIT = 1 << 62


class _Overflow(Exception):
    """An int64 solve could have produced a coefficient of _INT64_LIMIT."""


def _exact_array(values: list[int]) -> np.ndarray:
    """The values in the narrowest integer dtype holding them all, or in
    dtype=object (exact Python ints) when they reach _INT64_LIMIT."""
    if values and max(-min(values), max(values)) >= _INT64_LIMIT:
        return np.array(values, dtype=object)
    return _narrow(np.array(values, dtype=np.int64))


def _narrow(block: np.ndarray) -> np.ndarray:
    """An int64 array in the narrowest dtype that holds its range exactly."""
    lo, hi = (int(block.min()), int(block.max())) if block.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return block.astype(dtype)
    return block


def _row_poly(row: np.ndarray) -> LaurentPoly:
    return LaurentPoly({e: c for e, c in enumerate(row.tolist()) if c})


class InverseColumn(Mapping):
    """Read-only mapping y -> h^{y,x} over one stored inverse column.

    Rows are the ids of downset(x); only nonzero rows are keys.  Values
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
                got = _row_poly(self.coeffs[pos])
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


class KLTable:
    """Kazhdan-Lusztig data over one enumerated group table.

    Memoizes the canonical basis elements b_x (two independent routes),
    their coefficient blocks and the inverse polynomial columns.  All
    queries are safe after ``build_all``; lazy use is also fine
    single-threaded.
    """

    def __init__(self, group: GroupTable):
        self.group = group
        self._b: dict[int, HeckeElt] = {}
        self._b_solve: dict[int, HeckeElt] = {}
        self._b_blocks: dict[int, Block] = {}
        self._down_ids: dict[int, np.ndarray] = {}
        self._inv_cols: dict[int, InverseColumn] = {}

    # -- canonical basis, production route --------------------------------

    def kl_basis_element(self, x: Element) -> HeckeElt:
        """b_x by induction along the canonical word of x.

        For x = x's with s lengthening, b_{x'} b_s = b_x plus the
        mu-corrections sum_{ys<y} mu(y, x') b_y, so b_x is recovered by
        subtracting them.  Missing dependencies (the prefix, then the
        corrections) are built first from an explicit stack, so the depth
        of the induction costs no Python recursion.
        """
        got = self._b.get(x.index)
        if got is not None:
            return got
        stack = [x]
        while stack:
            top = stack[-1]
            if top.index in self._b:
                stack.pop()
                continue
            if not top.word:
                self._b[top.index] = HeckeElt.delta(self.group, top)
                stack.pop()
                continue
            prefix = self.group.element(top.word[:-1])
            prev = self._b.get(prefix.index)
            if prev is None:
                stack.append(prefix)
                continue
            s = top.word[-1]
            corrections = []
            for y, p in prev.terms.items():
                if s in self.group.descents(y, RIGHT):
                    m = p.coefficient(1)
                    if m:
                        corrections.append((y, m))
            missing = [y for y, _ in corrections if y.index not in self._b]
            if missing:
                stack.extend(missing)
                continue
            out = mult_b_gen(prev, s, RIGHT)
            for y, m in corrections:
                out = out - self._b[y.index].scaled(LaurentPoly.constant(m))
            self._validate_triangular(out, top)
            self._b[top.index] = out
            stack.pop()
        return self._b[x.index]

    def b_block(self, x: Element) -> Block:
        """The nonzero terms of b_x; exponents lie in [0, l(x)]."""
        got = self._b_blocks.get(x.index)
        if got is None:
            terms = sorted(self.kl_basis_element(x).terms.items(),
                           key=lambda kv: kv[0].index)
            at, exps, values = [], [], []
            for i, (y, p) in enumerate(terms):
                for e, c in p.items():
                    if not 0 <= e <= x.length:
                        raise InvariantError(
                            f"coefficient of {y!r} in b at {x!r} has a term "
                            f"v^{e} outside the window [0, {x.length}]")
                    at.append(i)
                    exps.append(e)
                    values.append(c)
            got = Block(np.array([y.index for y, _ in terms], dtype=np.intp),
                        np.array(at, dtype=np.intp),
                        np.array(exps, dtype=np.intp),
                        _exact_array(values),
                        max(sum(abs(c) for _, c in p.items())
                            for _, p in terms))
            self._b_blocks[x.index] = got
        return got

    # -- canonical basis, oracle route -------------------------------------

    def kl_basis_element_bar_solve(self, x: Element) -> HeckeElt:
        """b_x as the unique bar-invariant unitriangular element above x.

        Starts from delta_x and repeatedly cancels the top term of
        bar(B) - B with a correction gamma * b_y, gamma the positive part
        of the (antisymmetric) top coefficient.  Entirely independent of
        the mu-recursion route: it never touches mult_b_gen or mu.
        """
        got = self._b_solve.get(x.index)
        if got is not None:
            return got
        b = HeckeElt.delta(self.group, x)
        diff = bar_element(b) - b
        while diff:
            y, a = diff.top_term()
            if y.length >= x.length or not a.is_antisymmetric():
                raise InvariantError(
                    f"bar-invariance solve failed at {x!r}: stray term {y!r}")
            gamma = a.positive_part()
            by = self.kl_basis_element_bar_solve(y)
            b = b + by.scaled(gamma)
            diff = diff - by.scaled(a)
        if bar_element(b) != b:
            raise InvariantError(f"solve produced non-self-dual b at {x!r}")
        self._validate_triangular(b, x)
        self._b_solve[x.index] = b
        return b

    def _validate_triangular(self, b: HeckeElt, x: Element) -> None:
        for y, p in b.terms.items():
            if y == x:
                if p != _ONE:
                    raise InvariantError(f"b at {x!r} not unitriangular")
            elif not (p.in_v_times_polys() and p.is_nonnegative()):
                raise InvariantError(
                    f"coefficient of {y!r} in b at {x!r} outside vZ>=0[v]: {p}")

    # -- polynomials --------------------------------------------------------

    def kl_poly(self, y: Element, x: Element) -> LaurentPoly:
        """h_{y,x}: the coefficient of delta_y in b_x."""
        return self.kl_basis_element(x).coefficient(y)

    def mu(self, y: Element, x: Element) -> int:
        """The coefficient of v in h_{y,x}; nonnegative."""
        m = self.kl_poly(y, x).coefficient(1)
        if m < 0:
            raise InvariantError(f"negative mu({y!r},{x!r}) = {m}")
        return m

    def downset_ids(self, x: Element) -> np.ndarray:
        """The ids of downset(x), ascending; memoized."""
        got = self._down_ids.get(x.index)
        if got is None:
            got = np.array([y.index for y in self.group.downset(x)],
                           dtype=np.intp)
            self._down_ids[x.index] = got
        return got

    def inverse_column(self, x: Element) -> InverseColumn:
        """All h^{y,x} for y <= x, by one descending triangular solve.

        Peels the expansion of delta_x over the b-basis from the top:
        the id-largest remaining term delta_z has coefficient exactly
        (-1)^{l(x)-l(z)} h^{z,x} because every longer b has already been
        subtracted.  Runs in int64 and redoes the column with exact ints
        if the int64 bound would be reached.
        """
        got = self._inv_cols.get(x.index)
        if got is not None:
            return got
        try:
            coeffs = _narrow(self._solve_column(x, np.int64,
                                                _INT64_LIMIT))
        except _Overflow:
            coeffs = self._solve_column(x, object, None)
        coeffs.flags.writeable = False
        col = InverseColumn(self.group, self.downset_ids(x), coeffs)
        self._inv_cols[x.index] = col
        return col

    def _solve_column(self, x: Element, dtype, limit: int | None):
        """The block of column x over downset(x), computed in ``dtype``.

        With a ``limit``, ``bound`` stays >= every |coefficient| of the
        remainder: subtracting c * b_z adds at most max|c| * row_norm(b_z)
        to any entry, and _Overflow is raised before that could reach the
        limit.
        """
        down = self.group.downset(x)
        ids = self.downset_ids(x)
        where = np.full(x.index + 1, -1, dtype=np.intp)
        where[ids] = np.arange(len(ids))
        width = x.length + 1
        remainder = np.zeros((len(ids), width), dtype=dtype)
        remainder[-1, 0] = 1
        out = np.zeros_like(remainder)
        bound = 1
        for i in range(len(ids) - 1, -1, -1):
            c = remainder[i]
            nonzero = c.nonzero()[0]
            if not len(nonzero):
                continue
            z = down[i]
            exps = nonzero.tolist()
            coef = c[nonzero]
            values = coef.tolist()
            lo, hi = min(values), max(values)
            if (x.length - z.length) % 2:
                lo, hi = -hi, -lo
                np.negative(c, out=out[i])
            else:
                out[i] = c
            if lo < 0:
                raise InvariantError(
                    f"negative inverse polynomial at ({z!r},{x!r}): "
                    f"{_row_poly(out[i])}")
            b = self._b_blocks.get(z.index) or self.b_block(z)
            if exps[-1] + z.length > x.length:
                raise InvariantError(
                    f"h^ at ({z!r},{x!r}) has a term outside the window "
                    f"[0, {x.length - z.length}]: {_row_poly(out[i])}")
            if limit is not None:
                bound += hi * b.row_norm
                if bound >= limit:
                    raise _Overflow
            pos = where.take(b.rows, mode="clip")
            if b.rows[-1] > x.index or pos.min() < 0:
                raise InvariantError(
                    f"b at {z!r} has a term outside the downset of {x!r}")
            # one exponent of c at a time, so no entry is hit twice by one
            # subtraction; coef[k:k + 1] (not coef[k]) keeps the product in
            # the dtype of the remainder
            pos = pos[b.at]
            for k, e in enumerate(exps):
                remainder[pos, b.exps + e] -= b.values * coef[k:k + 1]
        return out

    def inverse_kl_poly(self, y: Element, x: Element) -> LaurentPoly:
        """h^{y,x}; zero unless y <= x."""
        return self.inverse_column(x).get(y, _ZERO)

    # -- identity checks ------------------------------------------------------

    def check_parity(self, y: Element, x: Element) -> bool:
        """Every exponent of h^{y,x} is congruent to l(x) - l(y) mod 2.

        Uses l(x) - l(y) = l(xy) mod 2, so no product is ever needed.
        """
        h = self.inverse_kl_poly(y, x)
        parity = (x.length - y.length) % 2
        return all(e % 2 == parity for e in h.exponents())

    def check_inversion_identity(self, y: Element, x: Element) -> bool:
        """The Kronecker sum over z in [y, x] of the two families.

        sum_z (-1)^{l(z)-l(y)} h^{y,z} h_{z,x} equals 1 when y = x and 0
        otherwise.
        """
        total = LaurentPoly.zero()
        for z in self.group.downset(x):
            if z.length < y.length or not self.group.bruhat_leq(y, z):
                continue
            term = self.inverse_kl_poly(y, z) * self.kl_poly(z, x)
            total = total + (term if (z.length - y.length) % 2 == 0 else -term)
        expected = _ONE if y == x else LaurentPoly.zero()
        return total == expected

    # -- bulk construction ------------------------------------------------------

    def build_all(self) -> None:
        """Materialise b_x, its block and the inverse column for every element.

        Walks in increasing id order (= increasing length), so every
        dependency is ready before first use; the column of x builds the
        blocks of every z <= x, x included.  Afterwards every query this
        class serves is a pure read and thus thread-safe.
        """
        for x in self.group:
            self.kl_basis_element(x)
        for x in self.group:
            self.inverse_column(x)
