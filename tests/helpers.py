"""Shared test utilities: cached group/table factories and independent oracles.

The oracles deliberately avoid the library's own canonical-word machinery:
symmetric groups are modelled by explicit permutation composition, Bruhat
order by the subword property, and reduced-word sets by brute enumeration.
``ReferenceGroupTable`` is the braid-closure enumeration that the integer
group tables replaced.  The sparse references at the end are the
dict-of-``LaurentPoly`` solves, identity checks (the Rouquier shadow among
them) and per-triple scans that the block kernel replaced, and the
per-element block passes (one column and one block at a time) that the
batched passes replaced.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from kllab.coxeter import GroupTable, canonical_form, parse_coxeter_spec
from kllab.hecke import (
    HeckeElt, KLTable, _bar_memo, bar_block, bar_blocks, mult_delta_gen,
)
from kllab import kernel
from kllab.kernel import (
    Block, InvariantError, block_terms, dense_blocks, exact_array, max_abs,
    narrow,
)
from kllab.laurent import LaurentPoly
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable, project,
)
from kllab.verify import Violation


def terms_block(terms) -> Block:
    """The block of (id, LaurentPoly) pairs given in increasing id order;
    zero polynomials are left out.  Tests store hand-made or broken
    blocks with it."""
    ids, exps, values, norm = [], [], [], 0
    for row, p in terms:
        size = 0
        for e, c in p.items():
            ids.append(row)
            exps.append(e)
            values.append(c)
            size += abs(c)
        norm = max(norm, size)
    return Block(np.array(ids, dtype=np.intp), np.array(exps, dtype=np.intp),
                 exact_array(values), norm)


def store_b(table: KLTable, x, terms: dict) -> None:
    """Store b_x in ``table`` as the Element -> LaurentPoly ``terms``."""
    table._canonical[x.index] = terms_block(
        sorted((y.index, p) for y, p in terms.items()))


@functools.lru_cache(maxsize=None)
def get_group(spec: str, cap: int | None = None) -> GroupTable:
    return GroupTable(parse_coxeter_spec(spec), cap)


@functools.lru_cache(maxsize=None)
def get_kl(spec: str, cap: int | None = None) -> KLTable:
    return KLTable(get_group(spec, cap))


def solved_b(group: GroupTable, x) -> HeckeElt:
    """b_x by the bar-invariance solve, the oracle of the mu route: the
    block of x in the antispherical table with I empty, decoded over the
    group."""
    table = ParabolicKLTable(ParabolicContext(group, (), ANTISPHERICAL))
    return HeckeElt.from_block(group, table.canonical_block(x))


def poly(pairs: dict[int, int]) -> LaurentPoly:
    return LaurentPoly(pairs)


# ----------------------------------------------------------------------
# symmetric group oracle: type A_{n-1} acting on {0..n-1}
# ----------------------------------------------------------------------

class SymmetricOracle:
    """S_n as explicit permutations; generator i swaps i and i+1."""

    def __init__(self, n: int):
        self.n = n
        self.identity = tuple(range(n))

    def gen(self, i: int) -> tuple[int, ...]:
        perm = list(range(self.n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def compose(self, x, y):
        """x after y."""
        return tuple(x[j] for j in y)

    def word_to_perm(self, word) -> tuple[int, ...]:
        out = self.identity
        for s in word:
            out = self.compose(out, self.gen(s))
        return out

    def length(self, perm) -> int:
        return sum(1 for i in range(self.n) for j in range(i + 1, self.n)
                   if perm[i] > perm[j])

    def right_descents(self, perm) -> set[int]:
        return {i for i in range(self.n - 1) if perm[i] > perm[i + 1]}

    def left_descents(self, perm) -> set[int]:
        inv = [0] * self.n
        for i, v in enumerate(perm):
            inv[v] = i
        return self.right_descents(tuple(inv))

    def all_elements(self):
        return [tuple(p) for p in itertools.permutations(range(self.n))]

    def reduced_words(self, perm) -> list[tuple[int, ...]]:
        """Every reduced word, by brute enumeration over all short words."""
        target_len = self.length(perm)
        return [w for w in itertools.product(range(self.n - 1),
                                             repeat=target_len)
                if self.word_to_perm(w) == perm]


# ----------------------------------------------------------------------
# braid-closure reference for the group tables
# ----------------------------------------------------------------------

class ReferenceGroupTable:
    """Every element of length <= cap as its canonical word, found by
    canonicalising each word of a level times each generator with Tits'
    algorithm; products, descents and inverses by canonicalising words, and
    Bruhat order by the descent recursion x <= y iff min(x, xs) <= ys for a
    right descent s of y.  Lists are indexed by id, with -1 for a product
    beyond the cap."""

    def __init__(self, matrix, cap: int | None):
        self.matrix = matrix
        self._canon: dict = {}
        gens = range(matrix.rank)
        self.words = [()]
        frontier = [()]
        while frontier and (cap is None or len(frontier[0]) < cap):
            level = {self.canonical(w + (s,)) for w in frontier for s in gens}
            frontier = sorted(c for c in level if len(c) > len(frontier[0]))
            self.words.extend(frontier)
        ids = {w: i for i, w in enumerate(self.words)}
        self.right = [[ids.get(self.canonical(w + (s,)), -1) for s in gens]
                      for w in self.words]
        self.left = [[ids.get(self.canonical((s,) + w), -1) for s in gens]
                     for w in self.words]
        self.right_descents = [[len(self.canonical(w + (s,))) < len(w)
                                for s in gens] for w in self.words]
        self.left_descents = [[len(self.canonical((s,) + w)) < len(w)
                               for s in gens] for w in self.words]
        self.inverses = [ids[self.canonical(w[::-1])] for w in self.words]
        top = len(self.words[-1])
        self.complete = cap is None or top < cap or all(
            all(d) for w, d in zip(self.words, self.right_descents)
            if len(w) == top)

    def canonical(self, word: tuple) -> tuple:
        got = self._canon.get(word)
        if got is None:
            got = self._canon[word] = canonical_form(word, self.matrix)
        return got

    def bruhat_leq(self, x: int, y: int) -> bool:
        while len(self.words[x]) < len(self.words[y]):
            s = self.right_descents[y].index(True)
            if self.right_descents[x][s]:
                x = self.right[x][s]
            y = self.right[y][s]
        return x == y

    def downset(self, y: int) -> list[int]:
        return [x for x in range(y + 1) if self.bruhat_leq(x, y)]


# ----------------------------------------------------------------------
# Bruhat order oracle via the subword property
# ----------------------------------------------------------------------

def subword_elements(table: GroupTable, word: tuple[int, ...]) -> set:
    """Canonical words of all subwords of ``word``."""
    out = set()
    for k in range(len(word) + 1):
        for idx in itertools.combinations(range(len(word)), k):
            out.add(table.canonical(tuple(word[i] for i in idx)))
    return out


def bruhat_leq_oracle(table: GroupTable, x, y) -> bool:
    """x <= y iff some subword of a reduced word of y represents x."""
    return x.word in subword_elements(table, y.word)


# ----------------------------------------------------------------------
# sparse references for the block kernel
# ----------------------------------------------------------------------

def decoded_column(table, x) -> dict:
    """The inverse column of x as Element -> LaurentPoly over its nonzero
    rows: a table's stored column decoded by ``block_terms``, or the dict
    of a ``ReferenceParabolic``."""
    col = table.inverse_column(x)
    return col if isinstance(col, dict) else block_terms(x.group, col)


def reference_inverse_column(table: KLTable, x) -> dict:
    """All h^{y,x}, by the descending solve over sparse dicts."""
    remainder = {x: LaurentPoly.one()}
    col = {}
    while remainder:
        z = max(remainder)
        c = remainder[z]
        col[z] = c if (x.length - z.length) % 2 == 0 else -c
        for y, p in table.kl_basis_element(z).terms.items():
            s = remainder.get(y, LaurentPoly.zero()) - c * p
            if s:
                remainder[y] = s
            else:
                remainder.pop(y, None)
    return col


def _reference_violation(z, y, x, lhs, rhs):
    bad = [e for e in set(lhs.exponents()) | set(rhs.exponents())
           if rhs.coefficient(e) - lhs.coefficient(e) < 0]
    return Violation(z, y, x, lhs, rhs, min(bad)) if bad else None


def reference_scan_inverse(table: KLTable):
    """(triples, violations) of the inverse scan, one triple at a time."""
    group = table.group
    zero = LaurentPoly.zero()
    count, found = 0, []
    cols = {x: decoded_column(table, x) for x in group}
    for x in group:
        colx = cols[x]
        for y in group.downset(x):
            coly = cols[y]
            for z in group.downset(y):
                count += 1
                v = _reference_violation(
                    z, y, x, coly.get(z, zero).shift(x.length - y.length),
                    colx.get(z, zero))
                if v:
                    found.append(v)
    return count, found


def reference_scan_classical(table: KLTable):
    """(triples, violations) of the classical scan, one triple at a time."""
    group = table.group
    count, found = 0, []
    for x in group:
        bx = table.kl_basis_element(x)
        for y in group.downset(x):
            for z in group.downset(y):
                count += 1
                v = _reference_violation(
                    z, y, x, bx.coefficient(y).shift(y.length - z.length),
                    bx.coefficient(z))
                if v:
                    found.append(v)
    return count, found


def reference_inversion_identity(table: KLTable, y, x) -> bool:
    """The Kronecker sum over z in [y, x], one LaurentPoly term at a time."""
    group = table.group
    total = LaurentPoly.zero()
    for z in group.downset(x):
        if z.length < y.length or not group.bruhat_leq(y, z):
            continue
        term = table.inverse_kl_poly(y, z) * table.kl_poly(z, x)
        total = total + (term if (z.length - y.length) % 2 == 0 else -term)
    return total == (LaurentPoly.one() if y == x else LaurentPoly.zero())


def reference_rouquier_shadow(table: KLTable, x) -> bool:
    """The Grothendieck check in HeckeElt arithmetic: the multiplicities of
    the decoded column of x, parity and sign checked term by term, re-sum
    to h^{y,x} and sum_y (-1)^i m^i_y v^i b_y is delta_x."""
    col = decoded_column(table, x)
    per_y: dict = {}
    for y, h in col.items():
        parity = (x.length - y.length) % 2
        for exp, c in h.items():
            if exp % 2 != parity:
                raise InvariantError(
                    f"parity-support failure at ({y!r},{x!r}) exponent {exp}")
            if c < 0:
                raise InvariantError(
                    f"negative multiplicity at ({y!r},{x!r},{exp})")
            per_y.setdefault(y, {})[exp] = c
    acc = HeckeElt.zero(table.group)
    for y, coeffs in per_y.items():
        if LaurentPoly(coeffs) != col[y]:
            return False
        signed = LaurentPoly({e: (m if e % 2 == 0 else -m)
                              for e, m in coeffs.items()})
        acc = acc + table.kl_basis_element(y).scaled(signed)
    return acc == HeckeElt.standard(table.group, x)


@functools.lru_cache(maxsize=None)
def reference_bar_delta(group: GroupTable, x) -> HeckeElt:
    """bar(delta_x) = bar(delta_{x'}) (delta_s + v - v^{-1}) along the
    canonical word, in LaurentPoly arithmetic."""
    if not x.word:
        return HeckeElt.standard(group, x)
    prev = reference_bar_delta(group, group.element(x.word[:-1]))
    return (mult_delta_gen(prev, x.word[-1])
            + prev.scaled(LaurentPoly({1: 1, -1: -1})))


class ReferenceParabolic:
    """The dict-of-LaurentPoly parabolic tables: canonical elements by
    cancelling the top term of bar(B) - B, inverse columns by peeling
    canonical elements off from the top."""

    def __init__(self, context: ParabolicContext):
        self.context = context
        self._canonical: dict = {}
        self._inverse: dict = {}

    def bar(self, m: HeckeElt) -> HeckeElt:
        ctx = self.context
        out = HeckeElt.zero(ctx)
        for x, p in m.terms.items():
            bar_x = project(reference_bar_delta(ctx.group, x), ctx)
            out = out + bar_x.scaled(p.bar())
        return out

    def canonical(self, x) -> HeckeElt:
        got = self._canonical.get(x)
        if got is not None:
            return got
        b = HeckeElt.standard(self.context, x)
        diff = self.bar(b) - b
        while diff:
            y, a = diff.top_term()
            if y.length >= x.length or not a.is_antisymmetric():
                raise InvariantError(f"reference solve failed at {x!r}")
            dy = self.canonical(y)
            b = b + dy.scaled(a.positive_part())
            diff = diff - dy.scaled(a)
        self._canonical[x] = b
        return b

    def inverse_column(self, x) -> dict:
        got = self._inverse.get(x)
        if got is not None:
            return got
        remainder = dict(HeckeElt.standard(self.context, x).terms)
        col = {}
        while remainder:
            z = max(remainder)
            c = remainder[z]
            col[z] = c if (x.length - z.length) % 2 == 0 else -c
            for y, p in self.canonical(z).terms.items():
                s = remainder.get(y, LaurentPoly.zero()) - c * p
                if s:
                    remainder[y] = s
                else:
                    remainder.pop(y, None)
        self._inverse[x] = col
        return col


def reference_scan_parabolic(ref: ReferenceParabolic):
    """(triples, violations) over the representatives of ``ref``'s
    quotient, one triple at a time."""
    ctx = ref.context
    group = ctx.group
    zero = LaurentPoly.zero()
    count, found = 0, []
    cols = {x: decoded_column(ref, x) for x in ctx.reps}
    for x in ctx.reps:
        colx = cols[x]
        for y in group.downset(x):
            if not ctx.is_rep(y):
                continue
            coly = cols[y]
            for z in group.downset(y):
                if not ctx.is_rep(z):
                    continue
                count += 1
                v = _reference_violation(
                    z, y, x, coly.get(z, zero).shift(x.length - y.length),
                    colx.get(z, zero))
                if v:
                    found.append(v)
    return count, found


# ----------------------------------------------------------------------
# per-element block passes: one column, one block of z at a time
# ----------------------------------------------------------------------

class _Overflow(Exception):
    pass


def row_positions(ids: np.ndarray, x) -> np.ndarray:
    """Position of each id in the sorted ``ids`` (all <= x.index), -1 for
    any other id; ``take(..., mode="clip")`` on the result maps every id
    above x.index to the -1 in its last slot."""
    where = np.full(x.index + 2, -1, dtype=np.intp)
    where[ids] = np.arange(len(ids))
    return where


@functools.lru_cache(maxsize=None)
def coset_split(group: GroupTable, subset) -> tuple[np.ndarray, np.ndarray]:
    """For every id w, the id of the representative x and l(u) in the
    splitting w = u x over the generators ``subset``: for a left descent
    t of w in the subset, w = t (tw) splits like tw, which has the smaller
    id, with one more letter in u."""
    isub = sorted(subset)
    tw = np.where(group.left_descents[:, isub], group.left[:, isub],
                  -1).max(axis=1, initial=-1).tolist()
    reps, u_lengths = list(range(len(group))), [0] * len(group)
    for w, u in enumerate(tw):
        if u >= 0:
            reps[w], u_lengths[w] = reps[u], u_lengths[u] + 1
    return np.array(reps, np.intp), np.array(u_lengths, np.intp)


def reference_projected_bar(ctx: ParabolicContext, x) -> Block:
    """bar(m_x) projected from the block of bar(delta_x) for x alone: each
    term p delta_w, w = u y, goes to p scalar^{l(u)} m_y."""
    full = bar_block(ctx.group, x)
    if not ctx.subset:
        return full
    reps, u_lengths = coset_split(ctx.group, ctx.subset)
    w = full.ids
    k = u_lengths[w]
    # an entry sums at most every term of bar(delta_x)
    dtype = (np.int64 if len(full.values) * full.row_norm < kernel.INT64_LIMIT
             else object)
    values = full.values.astype(dtype)
    if ctx.flavor == SPHERICAL:
        exps = full.exps - k
    else:
        exps = full.exps + k
        odd = k % 2 == 1
        values[odd] = -values[odd]
    top = x.length
    ids = ctx.downset_ids(x)
    pos = row_positions(ids, x).take(reps[w], mode="clip")
    if len(exps) and (exps.min() < -top or exps.max() > top
                      or pos.min() < 0):
        raise InvariantError(
            f"projected bar(delta) at {x!r} leaves its window")
    dense = np.zeros((len(ids), 2 * top + 1), dtype=dtype)
    np.add.at(dense, (pos, exps + top), values)
    return dense_blocks([ids], dense, top)[0]


def replace_bar_terms(ctx: ParabolicContext, z, edit) -> None:
    """Build bar(m_y) of every representative, then store bar(m_z) again
    after ``edit`` changed its decoded terms.  The recursion reads the
    blocks it stores, so a block broken before the blocks above it were
    built would spread to them."""
    bar_blocks(ctx, ctx.reps)
    terms = block_terms(ctx.group, bar_block(ctx, z))
    edit(terms)
    _bar_memo(ctx)[z.index] = terms_block(
        sorted((y.index, p) for y, p in terms.items()))


def _add_scaled(acc, where, x, z, block, shifts, coefs):
    """acc[row, exp + shifts[k]] += coefs[k] * value over every term of
    ``block`` (the block of z) and every k."""
    pos = where.take(block.ids, mode="clip")
    if pos.min() < 0:
        raise InvariantError(
            f"the block of {z!r} has a term outside the rows of {x!r}")
    for k, shift in enumerate(shifts):
        acc[pos, block.exps + shift] += block.values * coefs[k:k + 1]


def _reference_bar_solve(group, x, ids, bar_of, dtype, limit):
    """The descending bar-invariance solve of one column, row by row."""
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
        if limit is not None:
            bound += max_abs(coef) * r.row_norm
            if bound >= limit:
                raise _Overflow
        _add_scaled(acc, where, x, z, r, shifts, coef)
    if acc[:, :top].any() or (acc[:, top:] != out).any():
        raise InvariantError(
            f"bar-invariance solve produced a non-self-dual element at {x!r}")
    return out


def reference_bar_invariant_block(group, x, ids, bar_of) -> Block:
    """The canonical element of x over ``ids`` by the per-element solve,
    in int64 under the bound and redone in exact ints above it."""
    try:
        out = narrow(_reference_bar_solve(group, x, ids, bar_of, np.int64,
                                          kernel.INT64_LIMIT))
    except _Overflow:
        out = _reference_bar_solve(group, x, ids, bar_of, object, None)
    if (ids[-1] != x.index or out[-1, 0] != 1 or out[-1, 1:].any()
            or out[:-1, 0].any()):
        raise InvariantError(
            f"canonical element at {x!r} not unitriangular over vZ[v]")
    return dense_blocks([ids], out)[0]


def reference_kronecker_failures(group, x, ids, block, column_of):
    """The rows of the column of x where the Kronecker sum fails, one
    column of z and one term at a time."""
    elements = group.elements
    top = x.length
    where = row_positions(ids, x)
    rows, bounds = np.unique(block.ids, return_index=True)
    rows, exps, values = (rows.tolist(), block.exps.tolist(),
                          block.values.tolist())
    bounds = [*bounds.tolist(), len(values)]
    slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    columns = [column_of(elements[z]) for z in rows]
    bound = sum(sum(abs(c) for c in values[sl]) * max_abs(col.coeffs)
                for sl, col in zip(slices, columns))
    dtype = np.int64 if bound < kernel.INT64_LIMIT else object
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
