"""The length-level passes against lone requests.

``build_all`` builds every b_x, bar(delta_x) and inverse column one length
level at a time, a chunk of columns per stacked step.  A lone request
walks its missing prefixes through the same steps as one-column levels.
On a fresh table both must store the same blocks and columns, dtypes and
row norms included, at the default cell budget and at its minimum (one
column per chunk), and both must agree with the sparse references.  A
fault inside a level of several columns must raise what the first failing
lone request raises.
"""

import itertools

import numpy as np
import pytest

from kllab import kernel
from kllab.coxeter import GroupTable
from kllab.hecke import KLTable, bar_block, bar_blocks
from kllab.kernel import InverseColumn, InvariantError, block_terms
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from helpers import (
    get_group, poly, reference_bar_delta, reference_inverse_column,
    solved_b, store_b,
)

GROUPS = [("H3", None), ("B3", None), ("Aff-A2", 8)]


def fresh_group(spec: str, cap) -> GroupTable:
    """A group table with no memoized bar(delta) blocks."""
    return GroupTable(get_group(spec, cap).matrix, cap)


def tables(group: GroupTable):
    """The KLTable and both flavors of I = empty and of each singleton."""
    yield KLTable(group)
    for t in itertools.chain([()], ((s,) for s in range(group.matrix.rank))):
        for flavor in (SPHERICAL, ANTISPHERICAL):
            yield ParabolicKLTable(ParabolicContext(group, t, flavor))


def same_block(a, b) -> bool:
    return (all(np.array_equal(p, q) for p, q in zip(a[:3], b[:3]))
            and a.values.dtype == b.values.dtype and a.row_norm == b.row_norm)


def same_column(a, b) -> bool:
    return (np.array_equal(a.rows, b.rows) and a.coeffs.dtype == b.coeffs.dtype
            and np.array_equal(a.coeffs, b.coeffs))


@pytest.mark.parametrize("budget", ["default", "minimum"])
@pytest.mark.parametrize("spec,cap", GROUPS)
def test_levels_match_lone_requests(monkeypatch, spec, cap, budget):
    if budget == "minimum":
        monkeypatch.setattr(kernel, "CELL_BUDGET", 1)
    levels, lone = fresh_group(spec, cap), fresh_group(spec, cap)
    # bar(delta_x) by levels and alone, and by the LaurentPoly recursion
    together = bar_blocks(levels, list(levels))
    for x in list(lone)[::-1]:
        assert same_block(bar_block(lone, x), together[x.index]), x
    for x in list(levels)[::5]:
        assert block_terms(levels, together[x.index]) \
            == reference_bar_delta(levels, x).terms, x
    steps = _steps(monkeypatch)
    for built, asked in zip(tables(levels), tables(lone)):
        built.build_all()
        basis = list(asked.basis)[::-1]
        for x in basis:
            assert same_column(asked.inverse_column(x),
                               built.inverse_column(x)), (asked, x)
        for x in basis:
            assert same_block(asked.canonical_block(x),
                              built.canonical_block(x)), (asked, x)
        if isinstance(built, KLTable):
            for x in basis[::7]:
                assert block_terms(levels, built.inverse_column(x)) \
                    == reference_inverse_column(built, x), x
                assert built.kl_basis_element(x) == solved_b(levels, x), x
    # no step of a level was given up and redone column by column
    assert all(ok for _, ok in steps)
    assert max(n for n, _ in steps) > (1 if budget == "default" else 0)


def _steps(monkeypatch) -> list:
    """Record (columns, finished) of every level step of the b_x and the
    inverse-column passes."""
    seen = []
    for cls, name in ((KLTable, "_b_steps"),
                      (kernel.ColumnTable, "_inverse_steps")):
        def spy(self, batch, *args, _step=getattr(cls, name)):
            seen.append(entry := [len(batch.xs), False])
            got = _step(self, batch, *args)
            entry[1] = True
            return got
        monkeypatch.setattr(cls, name, spy)
    return seen


def _chunks(monkeypatch, cls, name: str) -> list:
    """Record the xs of every call of the level step ``cls.name``."""
    seen, step = [], getattr(cls, name)

    def spy(self, batch, *args):
        seen.append(list(batch.xs))
        return step(self, batch, *args)
    monkeypatch.setattr(cls, name, spy)
    return seen


def _negative_mu(table: KLTable) -> None:
    """mu(y, z) = -9 for the first z below the prefix w of an x = ws of
    length 4 in B3 whose mu sum under b_s holds a y."""
    g = table.group
    table.canonical_blocks(g)
    z, y, terms = next(
        (z, y, terms) for w, s in map(g.prefix, g) if w.length == 3
        for z in g.downset(w) if g.right[z.index, s] > z.index
        for terms in [block_terms(g, table.canonical_block(z))]
        for y, h in terms.items()
        if h.coefficient(1) and g.right[y.index, s] < y.index)
    terms[y] = terms[y] + poly({1: -9 - terms[y].coefficient(1)})
    store_b(table, z, terms)


def _constant_term(table: KLTable) -> None:
    """A constant term in h^{y,w}, w the prefix of an x = ws of length 4
    in B3 and y a row with ys < y: the step to x leaves -v^{-1} in row y."""
    g = table.group
    w, s, y = next((w, s, y) for w, s in map(g.prefix, g) if w.length == 3
                   for y in g.downset_ids(w).tolist() if g.right[y, s] < y)
    col = table.inverse_column(w)
    pos = int(np.searchsorted(col.rows, y))
    coeffs = col.coeffs.astype(np.int64)
    coeffs[pos, 0] = 1
    table._inv_cols[w.index] = InverseColumn(col.rows, coeffs)


@pytest.mark.parametrize("corrupt,message", [
    (_negative_mu, "negative inverse polynomial"),
    (_constant_term, "has a v^-1 term"),
])
def test_inverse_fault_in_a_level(monkeypatch, corrupt, message):
    """build_all raises what the first failing lone request raises, for a
    corrupted mu entry and for a corrupted stored column."""
    group = get_group("B3")
    lone = KLTable(group)
    corrupt(lone)
    with pytest.raises(InvariantError) as expected:
        for x in group:
            lone.inverse_column(x)
    assert message in str(expected.value)
    failing = next(x for x in group if x.index not in lone._inv_cols)
    seen = _chunks(monkeypatch, kernel.ColumnTable, "_inverse_steps")
    table = KLTable(group)
    corrupt(table)
    with pytest.raises(InvariantError) as raised:
        table.build_all()
    assert str(raised.value) == str(expected.value)
    assert any(failing in xs and len(xs) > 1 for xs in seen)
    assert all(x.index in table._inv_cols for x in group if x < failing)


def test_b_fault_in_a_level(monkeypatch):
    """A stored b_z with a negative coefficient: the level pass over all
    b_x raises what the first failing lone request raises."""
    group = get_group("B3")
    z = next(w for w in group if w.length == 3)

    def corrupt(table):
        terms = block_terms(group, KLTable(group).canonical_block(z))
        terms[group.identity] = poly({2: -1})
        store_b(table, z, terms)
    lone = KLTable(group)
    corrupt(lone)
    with pytest.raises(InvariantError) as expected:
        for x in group:
            lone.canonical_block(x)
    failing = next(x for x in group if x.index not in lone._canonical)
    seen = _chunks(monkeypatch, KLTable, "_b_steps")
    table = KLTable(group)
    corrupt(table)
    with pytest.raises(InvariantError) as raised:
        table.build_all()
    assert str(raised.value) == str(expected.value)
    assert any(failing in xs and len(xs) > 1 for xs in seen)


def test_one_column_levels_of_a_deep_request():
    """A lone request in Aff-A1 walks its 40 prefixes one column each and
    stores only its own column."""
    group = fresh_group("Aff-A1", 40)
    x = group.element(tuple(i % 2 for i in range(40)))
    table = KLTable(group)
    col = table.inverse_column(x)
    assert set(table._inv_cols) == {0, x.index}
    assert block_terms(group, col) == reference_inverse_column(table, x)
