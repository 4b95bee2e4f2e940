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
Here the canonical bases are produced directly by the kernel's
bar-invariance pass over the blocks of bar(delta_x), projected a chunk
of representatives per pass (``ParabolicContext.bar_blocks``); no
mu-style recursion and no projection of b_x is used.  The four
coefficient families mirror the non-parabolic ones:

    c_x = sum_y m_{y,x} delta_y    delta_x = sum_y (-1)^{l(x)-l(y)} m^{y,x} c_y
    d_x = sum_y n_{y,x} delta_y    delta_x = sum_y (-1)^{l(x)-l(y)} n^{y,x} d_y

For the antispherical flavor the inverse family coincides with the
restriction of the inverse Kazhdan-Lusztig table, n^{z,x} = h^{z,x}; this
package never assumes that identity, it recomputes both sides and compares
(``check_soergel_identification``).  Both sides share the prefix
recursion of ``kernel.ColumnTable`` over independent canonical bases; the
inversion identity of each table is what checks the recursion itself.

Elements of the induced module are ``hecke.HeckeElt`` vectors whose space
is the ``ParabolicContext`` (``ParabolicElt`` is the same class), so their
arithmetic and the bar involution (``bar_parabolic`` is ``bar_element``)
are the regular module's.  ``ParabolicKLTable`` shares its inverse
columns and inversion checks with ``KLTable`` through
``kernel.ColumnTable``, supplying the representatives as basis and the
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
    _VINV_MINUS_V, HeckeElt, KLTable, _accum, bar_blocks, bar_element,
)
from .kernel import (
    INT64_LIMIT, Batch, Block, ColumnTable, InvariantError,
    bar_invariant_blocks, chunks, dense_blocks, row_poly, stack_terms,
)
from .laurent import LaurentPoly

SPHERICAL = "spherical"
ANTISPHERICAL = "antispherical"

#: an element of an induced module is a HeckeElt over its context
ParabolicElt = HeckeElt


class FlavorMismatchError(ValueError):
    """A spherical table was supplied where an antispherical one is needed,
    or vice versa."""


class ParabolicContext:
    """A quotient ^I W with a flavor fixing how delta_t acts for t in I."""

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
        # w = u x for every id w, as the ids of x and l(u): for a left
        # descent t of w in I, w = t (tw) splits like tw with one more
        # letter in u, and tw has the smaller id
        isub = sorted(self.subset)
        tw = np.where(group.left_descents[:, isub], group.left[:, isub],
                      -1).max(axis=1, initial=-1).tolist()
        reps, u_lengths = list(range(len(group))), [0] * len(group)
        for w, u in enumerate(tw):
            if u >= 0:
                reps[w], u_lengths[w] = reps[u], u_lengths[u] + 1
        self._split = np.array(reps, np.intp), np.array(u_lengths, np.intp)
        self._down_ids: dict[int, np.ndarray] = {}
        self._bar_rep: dict[int, Block] = {}

    def is_rep(self, x: Element) -> bool:
        return bool(self.rep_mask[x.index])

    def coset_decomposition(self, w: Element) -> tuple[Element, int]:
        """The representative x and l(u) from the splitting w = u * x."""
        reps, u_lengths = self._split
        return self.group.elements[reps.item(w.index)], u_lengths.item(w.index)

    def downset_ids(self, x: Element) -> np.ndarray:
        """The ids of the representatives y <= x, ascending; memoized."""
        got = self._down_ids.get(x.index)
        if got is None:
            ids = self.group.downset_ids(x)
            got = self._down_ids[x.index] = ids[self.rep_mask[ids]]
        return got

    def bar_block(self, x: Element) -> Block:
        """bar(m_x) as a block, by ``bar_blocks``."""
        got = self._bar_rep.get(x.index)
        return got if got is not None else self.bar_blocks([x])[0]

    def bar_blocks(self, xs) -> list[Block]:
        """bar(m_x) = 1 (x) bar(delta_x) for each x of ``xs`` as a block
        over the representatives below x, exponents in [-l(x), l(x)];
        memoized.  Each term p delta_w of bar(delta_x), w = u y split as in
        ``coset_decomposition``, goes to p scalar^{l(u)} m_y, a chunk of xs
        per pass: one ``Batch.locate``, ``np.add.at`` and ``dense_blocks``
        over its stacked terms.  A chunk's dense cells and eight cells per
        term fill about CELL_BUDGET; it runs in int64 unless some x's term
        count times row norm reaches INT64_LIMIT."""
        memo, group = self._bar_rep, self.group
        todo = [x for x in dict.fromkeys(xs) if x.index not in memo]
        full = dict(zip(todo, bar_blocks(group, todo)))
        if not self.subset:         # the regular module: bar(delta_x)
            memo.update((x.index, block) for x, block in full.items())
            todo = []
        reps, u_lengths = self._split
        anti = self.flavor == ANTISPHERICAL
        for chunk in chunks(todo, lambda x: len(self.downset_ids(x)) * (
                2 * x.length + 1) + 8 * full[x].size + x.index + 2):
            slot, w, exps, values = stack_terms([full[x] for x in chunk])
            values = values.astype(np.int64 if max(
                full[x].size * full[x].row_norm for x in chunk) < INT64_LIMIT
                else object)
            # scalar^{l(u)} is v^{-l(u)}, or (-v)^{l(u)} if antispherical
            k = u_lengths[w]
            exps = exps + (k if anti else -k)
            values[anti & (k % 2 == 1)] *= -1
            ids = [self.downset_ids(x) for x in chunk]
            pos = Batch(group, chunk, ids).locate(slot, reps[w])
            lengths = np.array([x.length for x in chunk])
            off = (pos < 0) | (np.abs(exps) > lengths[slot])
            if off.any():
                x = chunk[slot[off.argmax()]]
                raise InvariantError(
                    f"projected bar(delta) at {x!r} leaves its window")
            top = int(lengths.max())
            dense = np.zeros((sum(map(len, ids)), 2 * top + 1), values.dtype)
            np.add.at(dense, (pos, exps + top), values)
            memo.update(zip([x.index for x in chunk],
                            dense_blocks(ids, dense, top)))
        return [memo[x.index] for x in xs]


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


#: the bar involution reads bar(m_x) from the element's context
bar_parabolic = bar_element


class ParabolicKLTable(ColumnTable):
    """Canonical-basis data for one parabolic context.

    Canonical elements are stored as blocks and inverse columns as dense
    blocks, both over ``column_ids(x)``, the representatives below x.
    """

    def __init__(self, context: ParabolicContext):
        super().__init__(context.group, context.reps, context.rep_mask,
                         context.flavor == SPHERICAL)
        self.context = context
        self._canonical: dict[int, Block] = {}

    def column_ids(self, x: Element) -> np.ndarray:
        """The ids of the representatives y <= x; x must be one."""
        if not self.context.is_rep(x):
            raise ValueError(f"{x!r} is not a minimal coset representative")
        return self.context.downset_ids(x)

    def canonical_basis_element(self, x: Element) -> HeckeElt:
        """c_x (spherical) or d_x (antispherical), decoded from
        ``canonical_block``."""
        return HeckeElt.from_block(self.context, self.canonical_block(x))

    def canonical_block(self, x: Element) -> Block:
        """The block of c_x or d_x, by ``canonical_blocks``."""
        got = self._canonical.get(x.index)
        return got if got is not None else self.canonical_blocks([x])[0]

    def canonical_blocks(self, xs) -> list[Block]:
        """The blocks of c_x or d_x for ``xs`` by the bar-invariance pass,
        the missing ones solved in batches and stored.

        The pass runs over the representatives below each x, from the
        blocks of bar(m_z) alone; uniqueness of the basis makes the result
        independent of every choice made there.  First one ``bar_blocks``
        call projects the bar(m_z) of every z below the missing xs.
        """
        todo = [x for x in dict.fromkeys(xs) if x.index not in self._canonical]
        below = np.zeros(len(self.group), bool)
        for x in todo:
            below[self.column_ids(x)] = True
        self.context.bar_blocks(list(compress(self.group.elements, below)))
        for x, block in bar_invariant_blocks(
                self.group, todo, self.column_ids, self.context.bar_block):
            self._canonical[x.index] = block
        return [self._canonical[x.index] for x in xs]


def check_soergel_identification(
        parab: ParabolicKLTable, kl: KLTable) -> list[tuple]:
    """Mismatches between n^{z,x} and h^{z,x} over all representative pairs.

    Both sides share the prefix recursion of ``kernel.ColumnTable`` over
    independent canonical bases (the bar-invariance pass for d_z, the mu
    route for b_z); the inversion identity of each table is what checks
    the recursion itself.  An empty list certifies the identification on
    this quotient.
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
