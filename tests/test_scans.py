"""The four monotonicity scans against the one-triple-at-a-time
references, and the cover pass of the theorem scans against the triple
kernel.

Every scan must give the reference's triple count and its violations in
the same order, field by field and rendered the same, with the cell
budget at its default and at its minimum, where every pair (x, y) is a
piece of its own.  Columns in exact ints or in mixed integer dtypes share
one store without truncation, and a triple whose z is no row of x raises.
A theorem scan decided on its cover triples must give what a direct
triple-kernel call gives, on clean tables and under injected faults, and
a clean one must not run the triple kernel at all.
"""

import functools
import itertools
import random

import numpy as np
import pytest

from kllab import kernel, verify
from kllab.coxeter import CoxeterMatrix, GroupTable
from kllab.hecke import KLTable
from kllab.kernel import InverseColumn, InvariantError
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from kllab.verify import (
    run_identity_suite, scan_monotonicity_antispherical,
    scan_monotonicity_classical, scan_monotonicity_inverse,
    scan_monotonicity_spherical,
)
from helpers import (
    get_group, poly, reference_scan_classical, reference_scan_inverse,
    reference_scan_parabolic, store_b,
)
from test_suite_kernel import _fields, assert_violations_match

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
    values[block.ids == table.group.element((0,)).index] = value
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


# ----------------------------------------------------------------------
# the cover pass against the triple kernel
# ----------------------------------------------------------------------

def outcome(scan, table):
    """The count and the violations of a scan, each violation as its
    fields, text and JSON, or the text of the InvariantError it raises."""
    try:
        count, record = scan(table)
    except InvariantError as exc:
        return f"InvariantError: {exc}"
    return count, [(_fields(v), v.text(), v.to_json_obj()) for v in record]


def kernel_outcome(scan, table):
    """The outcome of ``scan`` with its cover pass skipped: a direct call
    of the triple kernel on the scan's own arguments."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_decided",
                      lambda group, xs, rows, holds, full: full())
        return outcome(scan, table)


def covers_hold(ptable) -> bool:
    """The inverse-family cover pass over the columns of a built table."""
    xs = list(ptable.basis)
    return verify._inverse_covers_hold(
        ptable.group, xs, {x.index: ptable.inverse_column(x) for x in xs})


def assert_cover_paths_match_the_kernel(group) -> None:
    """Each theorem scan of the group and of every quotient gives what
    the triple kernel gives; the inverse-family cover pass holds on a
    quotient exactly when the kernel finds no violation, spherical
    quotients with their genuine violations included."""
    table = KLTable(group)
    table.build_all()
    for scan in (scan_monotonicity_inverse, scan_monotonicity_classical):
        got = outcome(scan, table)
        assert got == kernel_outcome(scan, table) and got[1] == []
    for subset in subsets(group.matrix.rank):
        for flavor, scan in PARABOLIC:
            ptable = ParabolicKLTable(ParabolicContext(group, subset, flavor))
            ptable.build_all()
            if flavor == ANTISPHERICAL:
                assert outcome(scan, ptable) == kernel_outcome(scan, ptable)
            assert covers_hold(ptable) == (not scan(ptable)[1]), (
                subset, flavor)


@pytest.mark.parametrize("spec,cap", [
    ("A3", None), ("B3", None), ("H3", None), ("A4", None), ("B4", None),
    ("Aff-A2", 8)])
def test_cover_path_matches_the_triple_kernel(spec, cap):
    assert_cover_paths_match_the_kernel(get_group(spec, cap))


def random_finite_rank3(seed: int) -> CoxeterMatrix:
    """A finite rank-3 Coxeter matrix, bonds drawn from 2..7 by ``seed``."""
    rng = random.Random(seed)
    while True:
        a, b, c = (rng.choice(range(2, 8)) for _ in range(3))
        matrix = CoxeterMatrix([[1, a, b], [a, 1, c], [b, c, 1]])
        if matrix.is_finite():
            return matrix


@pytest.mark.parametrize("seed", range(8))
def test_cover_path_on_random_finite_rank3_matrices(seed):
    assert_cover_paths_match_the_kernel(GroupTable(random_finite_rank3(seed)))


def _move_coefficient(table, rng, step) -> None:
    """One coefficient of one inverse column of ``table``, at a row and
    an exponent drawn by ``rng``, moved by ``step``."""
    x = rng.choice([x for x in table.basis if x.length >= 2])
    col = table.inverse_column(x)
    coeffs = col.coeffs.astype(np.int64)
    coeffs[rng.randrange(len(col.rows)), rng.randrange(x.length + 1)] += step
    _replace_column(table, x, col.rows, coeffs)


def _move_term(table, rng, step) -> None:
    """One term of one b block, drawn by ``rng``, moved by ``step``."""
    x = rng.choice([x for x in table.group if x.length >= 2])
    block = table.canonical_block(x)
    values = block.values.astype(np.int64)
    values[rng.randrange(block.size)] += step
    table._canonical[x.index] = block._replace(values=values)


def _drop_row(table, rng, step) -> None:
    """One row but the last, drawn by ``rng``, dropped from one inverse
    column: a z off the rows, or a cover of x missing."""
    x = rng.choice([x for x in table.basis if x.length >= 2])
    col = table.inverse_column(x)
    keep = np.arange(len(col.rows)) != rng.randrange(len(col.rows) - 1)
    _replace_column(table, x, col.rows[keep], col.coeffs[keep])


def _row_off_downset(table, rng, step) -> None:
    """A term v^1 added to b_x at a row of x's length, off downset(x)."""
    group = table.group
    x = rng.choice([x for x in group if 0 < x.length < group.lengths[-1]])
    y = next(y for y in group if y.length == x.length and y != x)
    terms = dict(table.kl_basis_element(x).terms)
    terms[y] = poly({1: 1})
    store_b(table, x, terms)


FAULTS = {
    "inverse": (lambda g: KLTable(g), _move_coefficient,
                scan_monotonicity_inverse),
    "antispherical": (lambda g: ParabolicKLTable(ParabolicContext(
        g, (1,), ANTISPHERICAL)), _move_coefficient,
        scan_monotonicity_antispherical),
    "classical": (lambda g: KLTable(g), _move_term,
                  scan_monotonicity_classical),
    "inverse-off-rows": (lambda g: KLTable(g), _drop_row,
                         scan_monotonicity_inverse),
    "antispherical-off-rows": (lambda g: ParabolicKLTable(ParabolicContext(
        g, (0,), ANTISPHERICAL)), _drop_row, scan_monotonicity_antispherical),
    "classical-off-rows": (lambda g: KLTable(g), _row_off_downset,
                           scan_monotonicity_classical),
}


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """The xs of each triple-kernel call over all triples made while the
    test runs; a call given the zs of each y (the classical scan's cover
    triples) is not counted."""
    calls = []
    kernel_scan = verify._scan_triples

    def spy(*args, **kwargs):
        if kwargs.get("zs") is None:
            calls.append(args[1])
        return kernel_scan(*args, **kwargs)
    monkeypatch.setattr(verify, "_scan_triples", spy)
    return calls


@pytest.mark.parametrize("step", [-1, 1], ids=["lowered", "raised"])
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("spec", ["B3", "H3"])
def test_injected_faults_give_the_kernel_outcome(kernel_calls, spec, fault,
                                                 step):
    """A fault drawn by each of eight seeds gives the triple kernel's
    record or error, from the kernel itself when it is a violation or an
    error, and some of the faults give one."""
    make, inject, scan = FAULTS[fault]
    flagged = 0
    for seed in range(8):
        table = make(get_group(spec))
        table.build_all()
        inject(table, random.Random(seed), step)
        kernel_calls.clear()
        got = outcome(scan, table)
        failed = isinstance(got, str) or bool(got[1])
        assert bool(kernel_calls) >= failed, seed
        assert got == kernel_outcome(scan, table), seed
        flagged += failed
    assert flagged


def _with_column(table, x, edit) -> None:
    """The column of x replaced by ``edit(rows, coeffs)`` of a copy."""
    col = table.inverse_column(x)
    _replace_column(table, x, *edit(col.rows, col.coeffs.astype(np.int64)))


def test_a_row_reached_through_no_cover():
    """The antispherical A3 quotient by I = {1, 2} is a chain.  Its top x
    loses its one cover from its column, and h^{e,x} gets the constant
    term -1: no cover triple compares row e of x, and the scan must still
    give the kernel's violations."""
    ptable = ParabolicKLTable(ParabolicContext(
        get_group("A3"), (0, 1), ANTISPHERICAL))
    ptable.build_all()
    x = ptable.basis[-1]

    def edit(rows, coeffs):
        coeffs[0, 0] = -1
        keep = ptable.group.lengths[rows] != x.length - 1
        return rows[keep], coeffs[keep]
    _with_column(ptable, x, edit)
    got = outcome(scan_monotonicity_antispherical, ptable)
    assert got == kernel_outcome(scan_monotonicity_antispherical, ptable)
    assert got[1]


def test_a_z_off_the_rows_of_x_with_zero_rows():
    """Row e zeroed in every column and dropped from the column of
    x = 1,2 in A3: every comparison of row e holds, and the scan must
    raise as the kernel does."""
    group = get_group("A3")
    table = KLTable(group)
    table.build_all()
    x = group.element((0, 1))
    for y in group:
        _with_column(table, y, lambda rows, coeffs: (
            rows, np.where(rows[:, None] == 0, 0, coeffs)))
    _with_column(table, x, lambda rows, coeffs: (rows[1:], coeffs[1:]))
    got = outcome(scan_monotonicity_inverse, table)
    assert got == kernel_outcome(scan_monotonicity_inverse, table)
    assert got == (f"InvariantError: scan triple {group.identity!r} <= "
                   f"{group.element((0,))!r} <= {x!r}: {group.identity!r} "
                   f"is no row of the column of {x!r}")


def triple_count(table) -> int:
    """The sum over pairs y <= x of the basis of |rows of y|."""
    basis, leq = table.basis, table.group.bruhat_leq
    return sum(len(table.column_ids(y)) for x in basis for y in basis
               if leq(y, x))


@pytest.mark.parametrize("spec,cap", [("B3", None), ("H3", None),
                                      ("Aff-A2", 8)])
def test_clean_theorem_scans_skip_the_triple_kernel(kernel_calls, spec, cap):
    """On clean tables the inverse, antispherical and classical scans
    never enter the triple kernel and report every triple decided; the
    spherical scan always enters it."""
    group = get_group(spec, cap)
    table = KLTable(group)
    for scan in (scan_monotonicity_inverse, scan_monotonicity_classical):
        assert scan(table) == (triple_count(table), [])
    for subset in [(), (0,), (1, 2)]:
        anti = ParabolicKLTable(ParabolicContext(group, subset, ANTISPHERICAL))
        assert scan_monotonicity_antispherical(anti) == (
            triple_count(anti), [])
    assert kernel_calls == []
    for k, subset in enumerate([(), (0,), (1, 2)]):
        sph = ParabolicKLTable(ParabolicContext(group, subset, SPHERICAL))
        assert scan_monotonicity_spherical(sph)[0] == triple_count(sph)
        assert len(kernel_calls) == k + 1


def test_suite_runs_the_triple_kernel_for_spherical_scans_only(kernel_calls):
    """Of the suite's theorem and spherical scans with I = empty, {1} and
    {2, 3}, only the two spherical scans with I nonempty run the kernel."""
    report = run_identity_suite("B3", [(), (0,), (1, 2)])
    assert report.passed and len(kernel_calls) == 2
