"""
The Hecke algebra of a Coxeter system and its modules, in standard bases.

An element of a module is a sparse vector over the interned group
elements, ``HeckeElt``: a map Element -> LaurentPoly.  Its space is the
``GroupTable`` for the regular module, with basis {delta_x}, or a
``kernel.ParabolicContext`` for an induced module, with basis {m_x}
over the minimal coset representatives; ``HeckeElt.standard(space, x)``
is delta_x or m_x.  The regular module is the antispherical module with
I empty, so one element type, one arithmetic and one bar function
(``bar_element``, reading bar(m_x) from the space) serve both.  The
defining relations of the algebra are the quadratic relation

    (delta_s + v)(delta_s - v^{-1}) = 0

and length-additive products delta_x delta_y = delta_{xy}.  The canonical
self-dual basis {b_x} (normalised so b_s = delta_s + v) exists and is
unique with bar(b_x) = b_x and b_x = delta_x + sum of vZ[v]-multiples of
lower delta_y; its coefficients are the polynomials h_{y,x}, and the
expansion of delta_x back in the b-basis carries the inverse polynomials
h^{y,x} with alternating signs:

    b_x = sum_y h_{y,x} delta_y
    delta_x = sum_y (-1)^{l(x)-l(y)} h^{y,x} b_y

``KLTable`` is the table of the quotient with I empty, whose basis is
the whole group.  It computes b_x by the length recursion b_{x's} =
b_{x'} b_s - sum mu(y,x') b_y over y with ys < y, on integer blocks; its
oracle, which never touches mu, is ``parabolic.ParabolicKLTable`` with I
empty, the bar-invariance pass over the blocks of bar(delta_z), which the
suite solves only when the table's certificate (``certified``) fails.
Inverse polynomials, by the recursion delta_x = delta_{x'} (b_s - v), and
the inversion identity come from ``kernel.ColumnTable``, the table core of
every module.  Everything is memoized and all tables are built one length
level at a time, a chunk of each level per stacked step, so dependencies
always exist.

Each b_x is kept once as its nonzero terms (``Block``), each bar(m_x) as
a block over the basis below x memoized on its space (``bar_blocks``, one
recursion for the regular module and every quotient), and each inverse
column as a dense block over the sorted ids of downset(x)
(``InverseColumn``); see ``kernel`` for the passes and their overflow
guard.  ``HeckeElt`` arithmetic (``mult_b_gen`` among it) is library API
and the tests' reference; no table computes with it, and a block or column
becomes one only through ``kernel.block_terms``.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from . import kernel
from .coxeter import Element, GroupTable, RIGHT
from .kernel import (
    ANTISPHERICAL, Block, ColumnTable, InvariantError, Batch, ParabolicContext,
    add_blocks, batched, block_terms, dense_blocks, exact_total,
    prefix_levels, row_poly, stack_terms,
)
from .laurent import LaurentPoly

_V = LaurentPoly.v()
_VINV = LaurentPoly.v(-1)
_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})
_ONE = LaurentPoly.one()


class HeckeElt:
    """A sparse standard-basis vector of a module: Element -> LaurentPoly.

    ``space`` is the group table (the regular module) or the parabolic
    context (an induced module) the vector lives in.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms: dict[Element, LaurentPoly]):
        self.space = space
        self.terms = {x: p for x, p in terms.items() if p}

    @staticmethod
    def _clean(space, terms: dict[Element, LaurentPoly]) -> "HeckeElt":
        """An element over ``terms`` taken as given, with no zero entry as
        ``_accum`` and products of nonzero polynomials guarantee."""
        out = HeckeElt.__new__(HeckeElt)
        out.space, out.terms = space, terms
        return out

    @staticmethod
    def from_block(space, block: Block) -> "HeckeElt":
        """The element whose terms are the block's, decoded."""
        return HeckeElt._clean(space, block_terms(_group(space), block))

    @staticmethod
    def zero(space) -> "HeckeElt":
        return HeckeElt(space, {})

    @staticmethod
    def standard(space, x: Element) -> "HeckeElt":
        """The basis vector of x: delta_x, or m_x for a representative."""
        if not (isinstance(space, GroupTable) or space.is_rep(x)):
            raise ValueError(f"{x!r} is not a minimal coset representative")
        return HeckeElt(space, {x: _ONE})

    def coefficient(self, x: Element) -> LaurentPoly:
        return self.terms.get(x, LaurentPoly.zero())

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        return HeckeElt._clean(self.space,
                               _accum(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return HeckeElt._clean(self.space, _accum(
            dict(self.terms), other.terms.items(), negate=True))

    def scaled(self, p: LaurentPoly) -> "HeckeElt":
        if not p:
            return HeckeElt.zero(self.space)
        return HeckeElt._clean(self.space,
                               {x: q * p for x, q in self.terms.items()})

    def top_term(self) -> tuple[Element, LaurentPoly]:
        """The term with the (length, word)-largest index."""
        x = max(self.terms)
        return x, self.terms[x]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElt) and self.space is other.space
                and self.terms == other.terms)

    def __repr__(self) -> str:
        basis = "d" if isinstance(self.space, GroupTable) else "dI"
        parts = [f"({p})*{basis}[{x!r}]" for x, p in sorted(
            self.terms.items(), key=lambda kv: kv[0].index)]
        return "HeckeElt(" + (" + ".join(parts) or "0") + ")"


def _group(space) -> GroupTable:
    """The group table under a module's space."""
    return space if isinstance(space, GroupTable) else space.group


def _accum(out: dict[Element, LaurentPoly], terms,
           negate: bool = False) -> dict[Element, LaurentPoly]:
    """Add each (x, p) of ``terms`` into ``out`` (subtract, if ``negate``),
    dropping the entries that cancel; returns ``out``."""
    for x, p in terms:
        q = out.get(x)
        if negate:
            s = -p if q is None else q - p
        else:
            s = p if q is None else q + p
        if s:
            out[x] = s
        elif x in out:
            del out[x]
    return out


def mult_delta_gen(h: HeckeElt, s: int, side: str = RIGHT) -> HeckeElt:
    """Multiply by the standard generator delta_s on the given side.

    Per term: delta_x delta_s = delta_{xs} when xs is longer, and
    delta_{xs} + (v^{-1} - v) delta_x when xs is shorter (and mirrored on
    the left).
    """
    table = h.space

    def terms():
        for x, p in h.terms.items():
            y = table.mult_gen(x, s, side)
            yield y, p
            if y.length < x.length:
                yield x, p * _VINV_MINUS_V

    return HeckeElt._clean(table, _accum({}, terms()))


def mult_b_gen(h: HeckeElt, s: int, side: str = RIGHT) -> HeckeElt:
    """Multiply by b_s = delta_s + v on the given side.

    Per term: delta_x b_s = delta_{xs} + v delta_x when xs is longer, and
    delta_{xs} + v^{-1} delta_x when xs is shorter.
    """
    table = h.space

    def terms():
        for x, p in h.terms.items():
            y = table.mult_gen(x, s, side)
            yield y, p
            yield x, p * (_V if y.length > x.length else _VINV)

    return HeckeElt._clean(table, _accum({}, terms()))


#: delta_e over downset(e) = {e}; it is bar(m_e) in every module and b_e
_DELTA_E = Block(np.zeros(1, np.intp), np.zeros(1, np.intp),
                 np.ones(1, np.int8), 1)


def _bar_memo(space) -> dict[int, Block]:
    """The blocks of bar(m_x) built so far in the space, keyed by id."""
    return vars(space).setdefault("_hecke_bar_blocks", {0: _DELTA_E})


def bar_block(space, x: Element) -> Block:
    """bar(m_x) as a block over ``space.downset_ids(x)``, by
    ``bar_blocks``."""
    got = _bar_memo(space).get(x.index)
    return got if got is not None else bar_blocks(space, [x])[0]


def bar_blocks(space, xs) -> list[Block]:
    """bar(m_x) for each x of ``xs`` as a block over ``space.downset_ids(x)``
    with exponents in [-l(x), l(x)], memoized on the space: bar(delta_x)
    when the space is the group table, bar(m_x) over the representatives
    below x when it is a ``kernel.ParabolicContext``.

    bar(delta_s) = delta_s + v - v^{-1} and bar is multiplicative, so along
    the canonical word x = x's, whose prefix x' is again a representative,

        bar(m_x) = bar(m_{x'}) (delta_s + v - v^{-1})
                 = sum_y p_y (m_y delta_s + (v - v^{-1}) m_y)

    over the terms p_y m_y of bar(m_{x'}).  In a quotient, where ys is no
    representative it is ty for some t in I (Deodhar's lemma), m_y delta_s
    is the flavor's scalar times m_y, and p_y stays in row y times scalar +
    v - v^{-1}: v if spherical, -v^{-1} if antispherical.  The missing
    blocks and their missing prefixes are built one length level at a
    time, a chunk of each level per ``_times_generator`` step, without
    recursion.
    """
    group, memo = _group(space), _bar_memo(space)
    mask, wall = None, ()
    if space is not group:
        mask = space.rep_mask
        wall = tuple((space.scalar - _VINV_MINUS_V).items())

    def run(batch):
        prev = [memo[group.prefix(x)[0].index] for x in batch.xs]
        # each entry receives at most three terms of the previous block
        exact = 3 * max(b.row_norm for b in prev) >= kernel.INT64_LIMIT
        top = batch.xs[0].length
        acc = np.zeros((len(batch.ids), 2 * top + 1),
                       dtype=object if exact else np.int64)
        _times_generator(group, batch, stack_terms(prev), top, acc,
                         up=((1, 1), (-1, -1)), mask=mask, wall=wall)
        return dense_blocks(batch.rows, acc, top)
    for level in prefix_levels(group, xs, memo):
        for x, block in batched(level, space.downset_ids,
                                lambda x: 2 * x.length + 1, run):
            memo[x.index] = block
    return [memo[x.index] for x in xs]


def certified(table: ColumnTable) -> bool:
    """Whether ``table.certificate_holds`` over the blocks of bar(m_x)
    built in the table's module by ``bar_blocks``; they are dropped once
    it is decided."""
    try:
        return table.certificate_holds(
            lambda xs: bar_blocks(table.context, xs))
    finally:
        vars(table.context).pop("_hecke_bar_blocks", None)


def _times_generator(group: GroupTable, batch: Batch, prev, offset: int,
                     acc: np.ndarray, up, down=(), mask=None, wall=()):
    """Add the product of column k of ``prev`` by (delta_s + c) into the
    rows of column k of ``acc``, for each x = ``batch.xs[k]`` = x's, whose
    column of ``batch`` holds the sorted ids of the basis elements below x:
    ``prev`` are the ``stack_terms`` of the blocks of each x', and column
    j of ``acc`` holds the exponent j - offset.

    delta_y delta_s is delta_{ys}, plus (v^{-1} - v) delta_y if ys < y, so
    each term p delta_y moves unshifted to row ys and stays in row y
    times the (shift, coef) terms ``up`` if ys > y, ``down`` if ys < y.
    Where ``mask`` (the representatives of a quotient) does not hold ys,
    the term does not move and stays in row y times ``wall`` instead.
    """
    slot, src, exps, values = prev
    xs = batch.xs
    dst = group.right[src, np.array([group.prefix(x)[1] for x in xs])[slot]]
    across = (np.zeros(len(src), bool) if mask is None
              else (dst >= 0) & ~mask[dst])
    pos_src, pos_dst = batch.locate(slot, src), batch.locate(slot, dst)
    off = (pos_src < 0) | ((pos_dst < 0) & ~across)
    if off.any():
        x = xs[slot[off.argmax()]]
        raise InvariantError(f"the product at {x!r} leaves downset({x!r})")
    width = acc.shape[1]
    cols, values = exps + offset, values.astype(acc.dtype)
    rising = dst > src
    for rows, keep, shifts in ((pos_dst, ~across, ((0, 1),)),
                               (pos_src, rising & ~across, up),
                               (pos_src, ~rising, down),
                               (pos_src, across, wall)):
        for shift, coef in shifts:
            cells = cols[keep] + shift
            # numpy would wrap a negative column silently
            off = (cells < 0) | (cells >= width)
            if off.any():
                x = xs[slot[keep][off.argmax()]]
                raise InvariantError(
                    f"the product at {x!r} has a term outside exponents "
                    f"[{-offset}, {x.length}]")
            acc[rows[keep], cells] += coef * values[keep]


def bar_element(h: HeckeElt) -> HeckeElt:
    """The bar involution of the element's module: v -> v^{-1} on
    coefficients, and each basis vector to its bar, read as a block from
    the space by ``bar_block``."""
    space = h.space
    group = _group(space)
    out: dict[Element, LaurentPoly] = {}
    for x, p in h.terms.items():
        pb = p.bar()
        _accum(out, ((y, q * pb) for y, q in block_terms(
            group, bar_block(space, x)).items()))
    return HeckeElt._clean(space, out)


class KLTable(ColumnTable):
    """Kazhdan-Lusztig data over one enumerated group table.

    The table of ``context``, the antispherical quotient with I empty.
    Memoizes the canonical basis elements b_x as blocks of their nonzero
    terms, with exponents in [0, l(x)] (the mu route, ``canonical_block``;
    the bar-invariance solve that checks them is the antispherical
    ``ParabolicKLTable`` with I empty, over a context of its own); the
    inverse polynomial columns and the inversion-identity sums
    come from ``ColumnTable``, whose columns here must be nonnegative.
    All queries are safe after ``build_all``; lazy use is also fine
    single-threaded.
    """

    def __init__(self, group: GroupTable):
        super().__init__(ParabolicContext(group, (), ANTISPHERICAL))
        self._canonical[0] = _DELTA_E

    # -- canonical basis, production route --------------------------------

    def canonical_blocks(self, xs) -> list[Block]:
        """The blocks of b_x for ``xs``.  Every block ``_b_steps`` reads
        at z lies in downset(z) and is shorter than z, so building the
        missing part of each downset one length at a time meets each one
        first and needs no recursion."""
        memo, group = self._canonical, self.group
        need = np.zeros(len(group), bool)
        for x in xs:
            if x.index not in memo:
                need[group.downset_ids(x)] = True
        todo = [group.elements[z] for z in np.flatnonzero(need).tolist()
                if z not in memo]
        for _, level in groupby(todo, lambda z: z.length):
            for z, block in batched(list(level), group.downset_ids,
                                    lambda z: 2 * z.length + 2, self._b_steps):
                memo[z.index] = block
        return [memo[x.index] for x in xs]

    def _b_steps(self, batch: Batch) -> list[Block]:
        """b_z for the zs of a ``Batch``, all of one length, by the
        mu-recursion: for z = z's with s lengthening, b_{z'} b_s, a dense
        array over downset(z) x [0, l(z)], is b_z plus sum_{ys<y} mu(y, z')
        b_y, mu(y, z') the v^1 term of row y of b_{z'}.  The products of
        all the zs are one ``_times_generator`` step and their
        mu-multiples one sum of blocks.
        """
        group, memo, zs = self.group, self._canonical, batch.xs
        prev = [memo[group.prefix(z)[0].index] for z in zs]
        terms = stack_terms(prev)
        slot, y, e, c = terms
        s = np.array([group.prefix(z)[1] for z in zs])
        k = np.flatnonzero((e == 1) & group.right_descents[y, s[slot]])
        lower, which = np.unique(y[k], return_inverse=True)
        blocks = [memo[v] for v in lower.tolist()]
        # an entry gets two terms of b_{z'} and one of each mu-multiple
        norms = np.array([b.row_norm for b in blocks], dtype=object)
        exact = 2 * max(b.row_norm for b in prev) + exact_total(
            np.abs(c[k].astype(object)) * norms[which]) >= kernel.INT64_LIMIT
        acc = np.zeros((len(batch.ids), zs[0].length + 1),
                       dtype=object if exact else np.int64)
        _times_generator(group, batch, terms, 0, acc, up=((1, 1),),
                         down=((-1, 1),))
        add_blocks(acc, batch.locate, slot[k], which, 0 * k,
                   -c[k].astype(acc.dtype), blocks,
                   lambda j: f"the block of {group.elements[y[k[j]]]!r} has a "
                             f"term outside the rows of {zs[slot[k[j]]]!r}")
        self._validate_triangular(batch, acc)
        return dense_blocks(batch.rows, acc)

    def kl_basis_element(self, x: Element) -> HeckeElt:
        """b_x, decoded from ``canonical_block``."""
        return HeckeElt.from_block(self.group, self.canonical_block(x))

    def _validate_triangular(self, batch: Batch, acc: np.ndarray) -> None:
        """In the dense sums ``acc`` of the zs of a ``Batch``, column j
        holding v^j, the row of each x must be exactly 1 and every other
        row lie in vZ>=0[v]; the first x that fails raises."""
        top = acc[batch.top]
        unit = (top[:, 0] == 1) & (top[:, 1:] == 0).all(axis=1)
        fail = (acc[:, 0] != 0) | (acc < 0).any(axis=1)
        fail[batch.top] = ~unit
        if not fail.any():
            return
        row = int(fail.argmax())
        x = batch.xs[batch.slot[row]]
        if not unit[batch.slot[row]]:
            raise InvariantError(f"b at {x!r} not unitriangular")
        raise InvariantError(
            f"coefficient of {self.group.elements[batch.ids[row]]!r} in b "
            f"at {x!r} outside vZ>=0[v]: {row_poly(acc[row])}")

    # -- polynomials --------------------------------------------------------

    def mu(self, y: Element, x: Element) -> int:
        """The coefficient of v in h_{y,x}; nonnegative."""
        m = self.kl_poly(y, x).coefficient(1)
        if m < 0:
            raise InvariantError(f"negative mu({y!r},{x!r}) = {m}")
        return m

    def _check_columns(self, columns) -> None:
        """Every h^{y,x} must be nonnegative; in the first column with a
        negative one, the highest such y is named."""
        for x, col in columns:
            negative = np.flatnonzero((col.coeffs < 0).any(axis=1))
            if len(negative):
                pos = negative[-1]
                raise InvariantError(
                    f"negative inverse polynomial at "
                    f"({self.group.elements[col.rows[pos]]!r},{x!r}): "
                    f"{row_poly(col.coeffs[pos])}")

    # -- identity checks ------------------------------------------------------

    def check_parity(self, y: Element, x: Element) -> bool:
        """Every exponent of h^{y,x} is congruent to l(x) - l(y) mod 2.

        Uses l(x) - l(y) = l(xy) mod 2, so no product is ever needed.
        """
        h = self.inverse_kl_poly(y, x)
        parity = (x.length - y.length) % 2
        return all(e % 2 == parity for e in h.exponents())
