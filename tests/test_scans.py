"""The triple kernel of the four monotonicity scans against the
one-triple-at-a-time references.

Every scan must give the reference's triple count and its violations in
the same order, field by field and rendered the same, with the cell
budget at its default and at its minimum, where every pair (x, y) is a
piece of its own.  Columns in exact ints or in mixed integer dtypes share
one store without truncation, and a triple whose z is no row of x raises.
"""

import functools
import itertools

import numpy as np
import pytest

from kllab import kernel
from kllab.hecke import InverseColumn, KLTable
from kllab.kernel import InvariantError
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from kllab.verify import (
    scan_monotonicity_antispherical, scan_monotonicity_classical,
    scan_monotonicity_inverse, scan_monotonicity_spherical,
)
from helpers import (
    get_group, poly, reference_scan_classical, reference_scan_inverse,
    reference_scan_parabolic, store_b,
)
from test_suite_kernel import assert_violations_match

GROUPS = [("A3", None), ("B3", None), ("H3", None), ("G2", None),
          ("Aff-A2", 6), ("I2(inf)", 12)]
PARABOLIC = ((ANTISPHERICAL, scan_monotonicity_antispherical),
             (SPHERICAL, scan_monotonicity_spherical))


def subsets(rank: int):
    return itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1))


@functools.lru_cache(maxsize=None)
def tables(spec: str, cap):
    """The built tables of a group with the reference scans of each:
    (table, inverse, classical) and (ptable, reference) per quotient."""
    group = get_group(spec, cap)
    table = KLTable(group)
    table.build_all()
    quotients = []
    for subset in subsets(group.matrix.rank):
        for flavor, scan in PARABOLIC:
            ptable = ParabolicKLTable(ParabolicContext(group, subset, flavor))
            ptable.build_all()
            quotients.append((ptable, scan, reference_scan_parabolic(ptable)))
    return ((table, reference_scan_inverse(table),
             reference_scan_classical(table)), quotients)


def assert_scans_match(regular, quotients) -> None:
    table, inverse, classical = regular
    assert_violations_match(scan_monotonicity_inverse(table), inverse)
    assert_violations_match(scan_monotonicity_classical(table), classical)
    for ptable, scan, expected in quotients:
        assert_violations_match(scan(ptable), expected)


@pytest.mark.parametrize("budget", ["default", "minimum"])
@pytest.mark.parametrize("spec,cap", GROUPS)
def test_scans_match_the_references(monkeypatch, spec, cap, budget):
    if budget == "minimum":
        monkeypatch.setattr(kernel, "CELL_BUDGET", 1)
    assert_scans_match(*tables(spec, cap))


def test_exact_columns_share_the_store(monkeypatch):
    """With the int64 limit low, long columns and the dense b_x of long
    elements are exact ints; the scans over them equal the references."""
    monkeypatch.setattr(kernel, "INT64_LIMIT", 8)
    group = get_group("B3")
    table = KLTable(group)
    table.build_all()
    dtypes = {table.inverse_column(x).coeffs.dtype for x in group}
    assert np.dtype(object) in dtypes and len(dtypes) > 1
    quotients = []
    for subset in [(), (0,), (2,)]:
        for flavor, scan in PARABOLIC:
            ptable = ParabolicKLTable(ParabolicContext(group, subset, flavor))
            ptable.build_all()
            quotients.append((ptable, scan, reference_scan_parabolic(ptable)))
    assert_scans_match((table, reference_scan_inverse(table),
                        reference_scan_classical(table)), quotients)


def _replace_column(table, x, rows, coeffs) -> None:
    table._inv_cols[x.index] = InverseColumn(rows, coeffs)


def _int16_column(table, x, value):
    """The v^1 entry of the identity's row in the column of x set to
    ``value``."""
    col = table.inverse_column(x)
    coeffs = col.coeffs.astype(np.int16)
    coeffs[0, 1] = value
    _replace_column(table, x, col.rows, coeffs)
    return [table.inverse_column(w).coeffs.dtype for w in table.group]


def _int16_block(table, x, value):
    """h_{1,x} = v^2 of x = 1,2,3 set to ``value`` v^2."""
    block = table.canonical_block(x)
    values = block.values.astype(np.int16)
    values[block.rows[block.at] == table.group.element((0,)).index] = value
    table._canonical[x.index] = block._replace(values=values)
    return [table.canonical_block(w).values.dtype for w in table.group]


INT16_INPUTS = {
    "inverse": (_int16_column, scan_monotonicity_inverse,
                reference_scan_inverse),
    "classical": (_int16_block, scan_monotonicity_classical,
                  reference_scan_classical),
}


@pytest.mark.parametrize("value,family", [
    (1000, "inverse"), (-1000, "inverse"),
    (1000, "classical"), (-1000, "classical"),
], ids=["1000", "-1000", "classical:1000", "classical:-1000"])
def test_int16_column_among_int8_columns(value, family):
    """One int16 column (an inverse column, or the block of b_x) among
    int8 ones: the store takes int16, so a coefficient out of the int8
    range is compared and decoded whole."""
    store, scan, reference = INT16_INPUTS[family]
    group = get_group("B3")
    table = KLTable(group)
    table.build_all()
    x = group.element((0, 1, 2))
    assert set(store(table, x, value)) == {
        np.dtype(np.int8), np.dtype(np.int16)}
    got = scan(table)
    assert_violations_match(got, reference(table))
    assert any(value in [c for side in (v.lhs, v.rhs) for _, c in side.items()]
               for v in got[1])


def test_inverse_scan_raises_on_a_missing_row():
    """Drop the identity's row from the column of x = 1,2,3,2 in B3: the
    first triple z = e, y = 1 has no row z in x."""
    group = get_group("B3")
    table = KLTable(group)
    table.build_all()
    x = group.element((0, 1, 2, 1))
    col = table.inverse_column(x)
    _replace_column(table, x, col.rows[1:], col.coeffs[1:])
    with pytest.raises(InvariantError) as info:
        scan_monotonicity_inverse(table)
    z, y = group.identity, group.element((0,))
    assert str(info.value) == (f"scan triple {z!r} <= {y!r} <= {x!r}: "
                               f"{z!r} is no row of the column of {x!r}")


@pytest.mark.parametrize("budget", ["default", "minimum"])
def test_parabolic_scan_raises_on_a_missing_row(monkeypatch, budget):
    if budget == "minimum":
        monkeypatch.setattr(kernel, "CELL_BUDGET", 1)
    group = get_group("B3")
    ptable = ParabolicKLTable(ParabolicContext(group, (1,), ANTISPHERICAL))
    ptable.build_all()
    reps = ptable.context.reps
    x = reps[len(reps) // 2]
    col = ptable.inverse_column(x)
    _replace_column(ptable, x, col.rows[1:], col.coeffs[1:])
    y = group.elements[col.rows[1]]
    with pytest.raises(InvariantError) as info:
        scan_monotonicity_antispherical(ptable)
    assert str(info.value).startswith(
        f"scan triple {group.identity!r} <= {y!r} <= {x!r}:")


def test_classical_scan_raises_on_a_negative_exponent():
    """A term of b_x below v^0 lies off the shifted rows and raises as a
    term outside the rows of x, at the first such x."""
    group = get_group("B3")
    table = KLTable(group)
    table.build_all()
    x = group.element((0, 1, 2))
    terms = dict(table.kl_basis_element(x).terms)
    terms[group.element((1,))] = terms[group.element((1,))] + poly({-1: 1})
    store_b(table, x, terms)
    with pytest.raises(InvariantError) as info:
        scan_monotonicity_classical(table)
    assert str(info.value) == (f"the block of {x!r} has a term outside the "
                               f"rows of {x!r}")


def test_classical_scan_builds_no_inverse_column():
    """The classical scan reads the b_x blocks alone."""
    table = KLTable(get_group("B3"))
    count, record = scan_monotonicity_classical(table)
    assert count > 0 and not record
    assert set(table._inv_cols) == {0}


@pytest.mark.parametrize("budget", ["default", "minimum"])
def test_classical_scan_raises_above_the_degree_bound(monkeypatch, budget):
    """v^3 added to h_{2,x}, x = 1,2,3, whose degree bound is
    l(x) - l(2) = 2: the term lies past slot l(x) of the column of x, and
    the scan raises whether or not x shares its store with longer
    columns."""
    if budget == "minimum":
        monkeypatch.setattr(kernel, "CELL_BUDGET", 1)
    group = get_group("B3")
    table = KLTable(group)
    table.build_all()
    x = group.element((0, 1, 2))
    terms = dict(table.kl_basis_element(x).terms)
    terms[group.element((1,))] = terms[group.element((1,))] + poly({3: 1})
    store_b(table, x, terms)
    with pytest.raises(InvariantError) as info:
        scan_monotonicity_classical(table)
    assert str(info.value) == (f"the block of {x!r} has a term outside the "
                               f"rows of {x!r}")
