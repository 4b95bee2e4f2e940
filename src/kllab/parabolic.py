"""
Spherical and antispherical modules over the Hecke algebra.

For a generator subset I, the rank-1 modules of the parabolic subalgebra
where each delta_t (t in I) acts by the scalar v^{-1} (trivial flavor) or
-v (sign flavor) induce up to H-modules with standard basis indexed by the
minimal coset representatives.  Writing any w uniquely as u * x with u in
W_I and x a representative (lengths adding), the induced module sends
delta_w to scalar^{l(u)} delta_x.

The bar involution descends to both modules, and each carries a canonical
basis (c_x spherical, d_x antispherical) uniquely pinned by bar-invariance
plus a unitriangular expansion with off-diagonal coefficients in vZ[v].
Given the group's ``KLTable``, the canonical bases are gathered from the
blocks of b_x by Soergel's formulas (Represent. Theory 1, 1997, Prop.
3.4), n_{y,x} = sum_{z in W_I} (-v)^{l(z)} h_{zy,x} and, when the table
holds every w_I x, m_{y,x} = h_{w_I y, w_I x}.  Otherwise they come from
the kernel's bar-invariance pass over the blocks of bar(m_x), which
``hecke.bar_blocks`` builds in the module itself by the regular module's
recursion, with the flavor's scalar across a wall.  The suite certifies
a gathered table on its shadow pass (``hecke.certified``) and solves the
ones that fail.  The four coefficient families mirror the non-parabolic
ones:

    c_x = sum_y m_{y,x} delta_y    delta_x = sum_y (-1)^{l(x)-l(y)} m^{y,x} c_y
    d_x = sum_y n_{y,x} delta_y    delta_x = sum_y (-1)^{l(x)-l(y)} n^{y,x} d_y

For the antispherical flavor the inverse family coincides with the
restriction of the inverse Kazhdan-Lusztig table, n^{z,x} = h^{z,x}; this
package never assumes that identity, it recomputes both sides and compares
(``check_soergel_identification``).  Both sides share the prefix
recursion of ``kernel.ColumnTable``; the inversion identity of each table
is what checks the recursion itself.

Elements of the induced module are ``hecke.HeckeElt`` vectors over the
``ParabolicContext``, with the regular module's arithmetic and bar
involution, ``hecke.bar_element``.  ``ParabolicKLTable``, like
``KLTable`` (the quotient with I empty), is a ``kernel.ColumnTable`` over
its context, which ``kernel`` defines and this module re-exports with the
flavors; the context supplies the representatives as basis and the
flavor's wall rule: across a wall, b_s sends d_z to sum mu(y, z) d_y and
c_z to (v + v^{-1}) c_z.  Tables are keyed by ``Element.index``: the rows
of the column of x are the sorted ids of the representatives below x, and
canonical elements are stored as blocks, decoded only when a caller asks.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from .coxeter import Element, GroupTable
from .hecke import (
    _VINV_MINUS_V, HeckeElt, KLTable, _accum, _bar_memo, bar_blocks,
)
from . import kernel
from .kernel import (
    ANTISPHERICAL, SPHERICAL, Batch, Block, ColumnTable, InvariantError,
    ParabolicContext, bar_invariant_blocks, batched, dense_blocks, row_poly,
    stack_terms,
)

class FlavorMismatchError(ValueError):
    """A spherical table was supplied where an antispherical one is needed,
    or vice versa."""


def project(h: HeckeElt, context: ParabolicContext) -> HeckeElt:
    """The image 1 (x) h of a Hecke element in the induced module."""
    def terms():
        for w, p in h.terms.items():
            x, k = context.coset_decomposition(w)
            for _ in range(k):
                p = p * context.scalar
            yield x, p

    return HeckeElt._clean(context, _accum({}, terms()))


def act_delta_gen(m: HeckeElt, s: int) -> HeckeElt:
    """Right action of delta_s, case split over the coset geometry.

    For a representative x: either xs is again a representative (lengths
    move by one, quadratic relation applies downward), or xs = t x for a
    single t in I, necessarily lengthening, and delta_s acts by the
    module scalar.
    """
    ctx = m.space
    table = ctx.group

    def terms():
        for x, p in m.terms.items():
            j = table.right.item(x.index, s)
            if j < 0:
                # xs lies just beyond the cap, one longer than x
                if not _has_left_descent_in(table, x.word + (s,), ctx.subset):
                    table.mult_gen(x, s)        # raises CapExceededError
                yield x, p * ctx.scalar
                continue
            xs = table.elements[j]
            if not ctx.is_rep(xs):
                if xs.length < x.length:
                    raise InvariantError(
                        f"coset wall crossed downward at {x!r} * s{s + 1}")
                yield x, p * ctx.scalar
            else:
                yield xs, p
                if xs.length < x.length:
                    yield x, p * _VINV_MINUS_V

    return HeckeElt._clean(ctx, _accum({}, terms()))


def _has_left_descent_in(table: GroupTable, word: tuple[int, ...],
                         subset: frozenset[int]) -> bool:
    """Whether the reduced ``word``, which lies beyond the cap, has a left
    descent in ``subset``; decided on words."""
    return any(len(table.canonical((t,) + word)) < len(word) for t in subset)


class ParabolicKLTable(ColumnTable):
    """Canonical-basis data for one parabolic context.

    Canonical elements are stored as blocks and inverse columns as dense
    blocks, both over ``column_ids(x)``, the representatives below x.
    Given ``b``, the group's ``KLTable``, the blocks are gathered from its
    blocks by Soergel's formulas, but for a spherical quotient of a table
    that is not complete, where w_I x may lie beyond the cap; ``b`` is then
    None and the blocks come from the bar-invariance solve.
    """

    def __init__(self, context: ParabolicContext, b: KLTable | None = None):
        super().__init__(context)
        if b is not None and b.group is not self.group:
            raise ValueError("tables live over different groups")
        self.b = b if not self.spherical or self.group.is_complete() else None

    def canonical_basis_element(self, x: Element) -> HeckeElt:
        """c_x (spherical) or d_x (antispherical), decoded from
        ``canonical_block``."""
        return HeckeElt.from_block(self.context, self.canonical_block(x))

    def canonical_blocks(self, xs) -> list[Block]:
        """The blocks of c_x or d_x for ``xs``, the missing ones gathered
        (``_gathered``) or solved in batches, and stored.

        The solve is the bar-invariance pass over the representatives
        below each x, from the blocks of bar(m_z) alone, which one
        ``bar_blocks`` call first builds into the context's memo for every
        representative z below the missing xs; uniqueness of the basis
        makes the result independent of every choice made there.
        """
        todo = [x for x in dict.fromkeys(xs) if x.index not in self._canonical]
        if self.b is not None:
            got = batched(todo, self.column_ids, lambda x: x.length + 1,
                          self._gathered)
        else:
            below = np.zeros(len(self.group), bool)
            for x in todo:
                below[self.group.downset_ids(x)] = True
            bar_blocks(self.context, list(compress(self.group.elements,
                                                   below & self.mask)))
            got = bar_invariant_blocks(self.group, todo, self.column_ids,
                                       _bar_memo(self.context))
        for x, block in got:
            self._canonical[x.index] = block
        return [self._canonical[x.index] for x in xs]

    def _gathered(self, batch: Batch) -> list[Block]:
        """The blocks of the xs of a ``Batch`` from those of b by Soergel's
        formulas (Represent. Theory 1, 1997, Prop. 3.4): the term c v^e of
        b_x in row w = z y, z in W_I, goes to row y as (-1)^{l(z)} c
        v^{e + l(z)}; the rows w_I y of b_{w_I x} go to the rows y.  One
        dense sum, cut by ``dense_blocks``, in exact ints when the chunk's
        bound, the sum over its blocks of b of the row norm times the
        number of terms (at least the total of |c|), reaches INT64_LIMIT; a
        term that lands off the rows of x or the exponents [0, l(x)]
        raises."""
        rep, up, top = self.context.cosets()
        xs = batch.xs
        blocks = self.b.canonical_blocks([
            self.group.elements[top[x.index]] for x in xs]
            if self.spherical else xs)
        slot, w, e, values = stack_terms(blocks)
        values = values.astype(object if sum(
            b.row_norm * b.size for b in blocks) >= kernel.INT64_LIMIT
            else np.int64)
        if self.spherical:
            keep = top[rep[w]] == w
            slot, w, e, values = slot[keep], w[keep], e[keep], values[keep]
        else:
            values, e = np.where(up[w] % 2, -1, 1) * values, e + up[w]
        pos = batch.locate(slot, rep[w])
        tops = np.array([x.length for x in xs])
        off = (pos < 0) | (e < 0) | (e > tops[slot])
        if off.any():
            raise InvariantError(f"Soergel's formula at "
                                 f"{xs[slot[off.argmax()]]!r} sends a term "
                                 "of b off its rows")
        dense = np.zeros((len(batch.ids), tops.max() + 1), values.dtype)
        np.add.at(dense, (pos, e), values)
        return dense_blocks(batch.rows, dense)


def check_soergel_identification(
        parab: ParabolicKLTable, kl: KLTable) -> list[tuple]:
    """Mismatches between n^{z,x} and h^{z,x} over all representative pairs.

    Both sides share the prefix recursion of ``kernel.ColumnTable`` over
    their canonical bases (d_z gathered from b_z and certified, or solved;
    b_z by the mu route); the inversion identity of each table is what
    checks the recursion itself.  An empty list certifies the
    identification on this quotient.
    """
    ctx = parab.context
    if ctx.flavor != ANTISPHERICAL:
        raise FlavorMismatchError(
            "the inverse-polynomial identification concerns the "
            "antispherical flavor")
    if kl.group is not ctx.group:
        raise ValueError("tables live over different groups")
    parab.build_all()
    mismatches = []
    for x in ctx.reps:
        ncol = parab.inverse_column(x)
        hcol = kl.inverse_column(x)
        # both columns vanish off the representatives below x
        h = hcol.coeffs[np.searchsorted(hcol.rows, ncol.rows)]
        for pos in np.flatnonzero((ncol.coeffs != h).any(axis=1)).tolist():
            mismatches.append((ctx.group.elements[ncol.rows[pos]], x,
                               row_poly(ncol.coeffs[pos]), row_poly(h[pos])))
    return mismatches
