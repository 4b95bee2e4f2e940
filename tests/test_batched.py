"""The batched passes against the per-element references.

Every canonical block of every quotient, every bar(m_x) of the prefix
recursion against the projection of bar(delta_x), and
every Kronecker failure set must equal the per-element pass of
``helpers`` field by field, both with the cell budget at its default and
at its minimum, where every x is a chunk of its own and every scatter
piece holds one entry.  A fault in the middle of a multi-x chunk must
raise the message the per-element pass raises, and the exact fallback
must pick out single columns.
"""

import functools
import itertools

import numpy as np
import pytest

from kllab import hecke, kernel
from kllab.kernel import InvariantError
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from helpers import (
    get_group, poly, reference_bar_invariant_block,
    reference_kronecker_failures, reference_projected_bar, replace_bar_terms,
)

FLAVORS = (SPHERICAL, ANTISPHERICAL)
GROUPS = [("A3", None), ("B3", None), ("H3", None), ("D4", None),
          ("Aff-A2", 8), ("I2(inf)", 12)]


def subsets(rank: int):
    return itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1))


def same_block(got, expected) -> bool:
    return (all(np.array_equal(a, b) for a, b in zip(got[:3], expected[:3]))
            and got.values.dtype == expected.values.dtype
            and got.row_norm == expected.row_norm)


@functools.lru_cache(maxsize=None)
def references(spec: str, cap, subset, flavor):
    """Per-element canonical blocks and Kronecker failure sets, the latter
    over the per-element blocks and the recursion's inverse columns."""
    ctx = ParabolicContext(get_group(spec, cap), subset, flavor)
    bar_of = functools.partial(hecke.bar_block, ctx)
    blocks = {x.index: reference_bar_invariant_block(
        ctx.group, x, ctx.downset_ids(x), bar_of) for x in ctx.reps}
    table = ParabolicKLTable(ctx)
    table._canonical.update(blocks)
    table.build_all()
    failures = {x.index: reference_kronecker_failures(
        ctx.group, x, ctx.downset_ids(x), blocks[x.index],
        table.inverse_column) for x in ctx.reps}
    return blocks, failures


@pytest.mark.parametrize("budget", ["default", "minimum"])
@pytest.mark.parametrize("spec,cap", GROUPS)
def test_batched_passes_match_the_references(monkeypatch, spec, cap,
                                             budget):
    if budget == "minimum":
        monkeypatch.setattr(kernel, "CELL_BUDGET", 1)
    group = get_group(spec, cap)
    for subset in subsets(group.matrix.rank):
        for flavor in FLAVORS:
            blocks, failures = references(spec, cap, subset, flavor)
            table = ParabolicKLTable(ParabolicContext(group, subset, flavor))
            reps = table.basis
            for x, got in zip(reps, table.canonical_blocks(reps)):
                assert same_block(got, blocks[x.index]), (subset, flavor, x)
            got = dict(zip([x.index for x in reps],
                           table.inversion_failures(reps)))
            assert got == failures, (subset, flavor)


def _recursion_chunks(monkeypatch) -> list:
    """Record the chunk of xs of every step of the bar recursion."""
    seen = []

    def spy(group, batch, *args, _step=hecke._times_generator, **kwargs):
        seen.append(list(batch.xs))
        return _step(group, batch, *args, **kwargs)
    monkeypatch.setattr(hecke, "_times_generator", spy)
    return seen


@pytest.mark.parametrize("budget", ["default", "minimum"])
@pytest.mark.parametrize("spec,cap", [("A3", None), ("B3", None),
                                      ("H3", None), ("D4", None),
                                      ("Aff-A2", 8), ("I2(inf)", 12)])
def test_projected_bars_match_the_per_x_projection(monkeypatch, spec, cap,
                                                   budget):
    """Each representative's bar(m_x), built by the recursion of
    ``bar_blocks`` in chunks of each length level, is the per-x
    projection of bar(delta_x): row ids, exponents, values with their
    dtype, and row norm."""
    if budget == "minimum":
        monkeypatch.setattr(kernel, "CELL_BUDGET", 1)
    seen = _recursion_chunks(monkeypatch)
    group = get_group(spec, cap)
    for subset in subsets(group.matrix.rank):
        for flavor in FLAVORS:
            ctx = ParabolicContext(group, subset, flavor)
            for x, got in zip(ctx.reps, hecke.bar_blocks(ctx, ctx.reps)):
                expected = reference_projected_bar(ctx, x)
                assert same_block(got, expected), (subset, flavor, x)
                assert got.ids.dtype == expected.ids.dtype
    sizes = {len(chunk) for chunk in seen}
    assert (sizes == {1}) if budget == "minimum" else (max(sizes) > 1)


def test_projected_term_outside_the_window(monkeypatch):
    """Two prefix blocks bar(m_p) with a term at v^{l(p) + 1}: their
    products by delta_s + v - v^{-1} leave [-l(x), l(x)], and building a
    whole length level raises the first x's error, worded as a lone
    request for that x words it."""
    group = get_group("B3")
    ctx = ParabolicContext(group, (1,), ANTISPHERICAL)
    length = max(x.length for x in ctx.reps) // 2 + 1
    level = [x for x in ctx.reps if x.length == length]
    p1, p2 = sorted({group.prefix(x)[0] for x in level})[:2]

    def edit(p):
        return lambda terms: terms.update({p: terms[p] + poly(
            {p.length + 1: 1})})
    lone = ParabolicContext(group, (1,), ANTISPHERICAL)
    for c in (ctx, lone):
        for p in (p1, p2):
            replace_bar_terms(c, p, edit(p))
    # bar_blocks(ctx, ctx.reps) above built every block: clear the level
    for c in (ctx, lone):
        for x in level:
            del hecke._bar_memo(c)[x.index]
    x1, x2 = [x for x in level if group.prefix(x)[0] in (p1, p2)][:2]
    with pytest.raises(InvariantError) as expected:
        hecke.bar_block(lone, x1)
    assert repr(x1) in str(expected.value)
    assert "outside exponents" in str(expected.value)
    seen = _recursion_chunks(monkeypatch)
    with pytest.raises(InvariantError) as raised:
        hecke.bar_blocks(ctx, level)
    assert str(raised.value) == str(expected.value)
    assert any(x1 in chunk and x2 in chunk for chunk in seen)


def _chunks_seen(monkeypatch) -> list:
    """Record (dtype, xs) of every call of the batched solver."""
    seen = []

    def spy(group, batch, bars, dtype, _solve=kernel._bar_solve_chunk):
        seen.append((dtype, list(batch.xs)))
        return _solve(group, batch, bars, dtype)
    monkeypatch.setattr(kernel, "_bar_solve_chunk", spy)
    return seen


@pytest.mark.parametrize("edit,message", [
    (lambda terms, e, stray: terms.update({e: terms[e] + poly({1: 1})}),
     "not antisymmetric"),
    (lambda terms, e, stray: terms.update({stray: poly({1: 1, -1: -1})}),
     "outside the rows"),
])
def test_fault_in_a_multi_x_chunk(monkeypatch, edit, message):
    """A broken bar(m_z) used by several columns of one chunk raises the
    first failing x's message, as the per-element pass over the
    representatives in order raises it."""
    group = get_group("B3")
    ctx = ParabolicContext(group, (1,), ANTISPHERICAL)
    reps = list(ctx.reps)
    z = reps[len(reps) // 2]
    # a representative above z, so no row of the column of z
    stray = next(w for w in reps if w.length > z.length)
    replace_bar_terms(ctx, z, lambda terms: edit(terms, group.identity,
                                                 stray))
    expected = failing = None
    for x in reps:
        try:
            reference_bar_invariant_block(group, x, ctx.downset_ids(x),
                                          functools.partial(
                                              hecke.bar_block, ctx))
        except InvariantError as exc:
            expected, failing = str(exc), x
            break
    assert message in expected and repr(failing) in expected
    assert repr(z) in expected or message == "not antisymmetric"
    seen = _chunks_seen(monkeypatch)
    table = ParabolicKLTable(ctx)
    with pytest.raises(InvariantError) as raised:
        table.canonical_blocks(reps)
    assert str(raised.value) == expected
    assert any(failing in xs and len(xs) > 1 for _, xs in seen)
    # the columns before it are stored, as lone requests store them
    assert all(x.index in table._canonical for x in reps if x < failing)


def test_quotient_chunks_are_costed_by_their_own_rows(monkeypatch):
    """A quotient column costs its representatives below x, not all of
    downset(x): under a budget between the two costs of the 12 columns
    of H3 with I = {1, 2}, the solve takes them in one chunk."""
    ctx = ParabolicContext(get_group("H3"), (0, 1), ANTISPHERICAL)

    def cost(rows):
        return sum(len(rows(x)) * (3 * x.length + 2) + x.index + 2
                   for x in ctx.reps)
    budget = 4096
    assert cost(ctx.downset_ids) < budget < cost(ctx.group.downset_ids)
    monkeypatch.setattr(kernel, "CELL_BUDGET", budget)
    seen = _chunks_seen(monkeypatch)
    ParabolicKLTable(ctx).canonical_blocks(ctx.reps)
    assert [xs for _, xs in seen] == [list(ctx.reps)]


def test_the_first_of_two_faults_in_one_level():
    """Two broken blocks of one length under a lone column: the pass
    raises for the higher row, which a row-by-row pass meets first."""
    group = get_group("B3")
    ctx = ParabolicContext(group, (), ANTISPHERICAL)
    x = next(w for w in group if w.length == 5)
    stray = next(w for w in group if w.length == 6)
    z1, z2 = [z for z in group.downset(x) if z.length == 3][:2]
    for z in (z1, z2):
        replace_bar_terms(ctx, z, lambda terms: terms.update(
            {stray: poly({1: 1, -1: -1})}))
    with pytest.raises(InvariantError) as expected:
        reference_bar_invariant_block(group, x, ctx.downset_ids(x),
                                      functools.partial(hecke.bar_block, ctx))
    assert repr(z2) in str(expected.value)
    with pytest.raises(InvariantError) as raised:
        ParabolicKLTable(ctx).canonical_block(x)
    assert str(raised.value) == str(expected.value)


def test_one_x_of_a_chunk_past_the_bound(monkeypatch):
    """With the limit just above the bound of every x but one, the chunk
    holding that x is redone whole in exact ints, and every block is
    still the reference's."""
    group = get_group("B3")
    ctx = ParabolicContext(group, (), ANTISPHERICAL)
    reps = list(ctx.reps)
    bar_of = functools.partial(hecke.bar_block, ctx)
    expected = {x.index: reference_bar_invariant_block(
        group, x, ctx.downset_ids(x), bar_of) for x in reps}
    bounds = {}
    for x in reps:
        bounds[x.index] = sum(
            max(map(abs, b.values[b.ids == y].tolist()))
            * bar_of(group.elements[y]).row_norm
            for b in [expected[x.index]] for y in np.unique(b.ids).tolist())
    top = max(reps, key=lambda x: bounds[x.index])
    others = max(v for k, v in bounds.items() if k != top.index)
    assert others < bounds[top.index]
    monkeypatch.setattr(kernel, "INT64_LIMIT", others + 1)
    seen = _chunks_seen(monkeypatch)
    table = ParabolicKLTable(ctx)
    for x, got in zip(reps, table.canonical_blocks(reps)):
        assert same_block(got, expected[x.index]), x
    chunk = next(xs for dtype, xs in seen if top in xs)
    assert len(chunk) > 1
    assert (np.int64, chunk) in seen and (object, chunk) in seen
    assert [xs for dtype, xs in seen if top in xs] == [chunk, chunk]


def test_rows_and_bars_are_read_once(monkeypatch):
    """On a fresh quotient table the chunker reads the rows of each x once
    per pass: once for its canonical block and once for its inverse
    column.  The bar solve reads the blocks of bar(m_z) from the mapping
    it is given, calling neither ``hecke._bar_memo`` nor
    ``hecke.bar_block``."""
    ctx = ParabolicContext(get_group("H3"), (0,), ANTISPHERICAL)
    reads, solving, bar_reads = {}, [], []

    def column_ids(self, x, _ids=kernel.ColumnTable.column_ids):
        reads[x.index] = reads.get(x.index, 0) + 1
        return _ids(self, x)

    def solve(*args, _solve=kernel._bar_solve_chunk):
        solving.append(args[1])
        try:
            return _solve(*args)
        finally:
            solving.pop()

    def bar_spy(name):
        def spy(*args, _read=getattr(hecke, name)):
            if solving:
                bar_reads.append(name)
            return _read(*args)
        return spy
    monkeypatch.setattr(kernel.ColumnTable, "column_ids", column_ids)
    monkeypatch.setattr(kernel, "_bar_solve_chunk", solve)
    for name in ("_bar_memo", "bar_block"):
        monkeypatch.setattr(hecke, name, bar_spy(name))
    table = ParabolicKLTable(ctx)
    table.canonical_blocks(ctx.reps)
    assert reads == {x.index: 1 for x in ctx.reps}
    reads.clear()
    table.inverse_columns(ctx.reps)     # the identity's column is given
    assert reads == {x.index: 1 for x in ctx.reps[1:]}
    assert bar_reads == []
