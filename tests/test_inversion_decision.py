"""The inversion identity decided on one shadow pass per table, and the
one rule by which a check trusts the stored columns.

A clean suite runs no Kronecker sum and one shadow pass over the basis of
each table it checks, on the chunks' own ``Batch``es.  Under injected
faults the suite reports what it reports with the Kronecker sums forced
on every table, and the shadow decision never holds where the Kronecker
sums fail.  ``ColumnTable.columns_hold`` holds on every clean table and
fails on columns with rows or exponents off the rule, whose inverse and
antispherical scans then give the triple kernel's outcome.
"""

import collections
import itertools
import json
import random
import sys

import numpy as np
import pytest

from kllab import kernel, verify
from kllab.coxeter import GroupTable
from kllab.hecke import KLTable
from kllab.kernel import InvariantError
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from kllab.verify import run_identity_suite
from helpers import get_group
from test_scans import (
    FAULTS, _drop_row, _move_coefficient, _move_term, _replace_column,
    kernel_outcome, outcome, random_finite_rank3,
)
from test_suite_kernel import _break_b


def every_subset(rank: int) -> list:
    return [s for k in range(rank + 1)
            for s in itertools.combinations(range(rank), k)]


@pytest.mark.parametrize("spec,cap", [("A3", None), ("B3", None),
                                      ("H3", None), ("Aff-A2", 8)])
def test_clean_suite_runs_one_shadow_pass_per_table(monkeypatch, spec, cap):
    """No Kronecker sum, and each x of each table's basis passes through
    its table's shadow pass once; the regular table serves I empty."""
    kronecker, shadow = [], collections.defaultdict(list)

    def sums(self, xs, _sums=kernel.ColumnTable.inversion_failures):
        kronecker.append(self)
        return _sums(self, xs)

    def passes(*args, _pass=kernel.alternating_failures):
        inner_of = args[3]
        if inner_of.__func__ is not kernel.ColumnTable.inverse_columns:
            shadow[inner_of.__self__].extend(x.index for x in args[1].xs)
        return _pass(*args)
    monkeypatch.setattr(kernel.ColumnTable, "inversion_failures", sums)
    monkeypatch.setattr(kernel, "alternating_failures", passes)
    group = get_group(spec, cap)
    subsets = every_subset(group.matrix.rank)
    report = run_identity_suite(spec, subsets, cap, group=group)
    assert report.passed
    assert kronecker == []
    assert len(shadow) == 1 + 2 * (len(subsets) - 1)
    for table, xs in shadow.items():
        assert sorted(xs) == [x.index for x in table.basis], table.context
    assert sum(isinstance(t, KLTable) for t in shadow) == 1
    for check in report.checks:
        if "inversion-identity" in check.check:
            ctx = ParabolicContext(group, [t - 1 for t in check.subset],
                                   ANTISPHERICAL)
            assert check.pairs_checked == sum(
                len(ctx.downset_ids(x)) for x in ctx.reps)


def report_text(report) -> str:
    """Every line and field of the report, violations included."""
    return "\n".join(report.text_lines()) + json.dumps(
        report.to_json_obj(), indent=1)


def kronecker_report(*args, **kwargs):
    """The suite's report with every table deciding its inversion checks
    by the Kronecker sums."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel.ColumnTable, "inversion_holds",
                      lambda self: False)
        return run_identity_suite(*args, **kwargs)


def _faulty(monkeypatch, fault, seed, step, group) -> None:
    """Make each suite table of the fault's module inject the fault drawn
    by ``seed`` after its first build."""
    make, inject, _ = FAULTS[fault]
    context = make(group).context
    base = KLTable if not context.subset else ParabolicKLTable

    class Faulty(base):
        def build_all(self):
            super().build_all()
            if not vars(self).get("faulty") and (
                    self.context.subset, self.context.flavor) == (
                    context.subset, context.flavor):
                self.faulty = True
                inject(self, random.Random(seed), step)
    monkeypatch.setattr(verify, base.__name__, Faulty)


@pytest.mark.parametrize("step", [-1, 1], ids=["lowered", "raised"])
@pytest.mark.parametrize("fault", FAULTS)
def test_injected_faults_give_the_kronecker_report(monkeypatch, fault, step):
    """Each fault of the scan tests, drawn by four seeds on B3, gives the
    report of the Kronecker route, and some give a failing inversion
    check."""
    group = get_group("B3")
    flagged = 0
    for seed in range(4):
        with monkeypatch.context() as patch:
            _faulty(patch, fault, seed, step, group)
            args = ("B3", [(), (0,), (1,)], None)
            got = run_identity_suite(*args, group=group)
            assert report_text(got) == report_text(
                kronecker_report(*args, group=group)), seed
        flagged += any("inversion-identity" in c.check and not c.passed
                       for c in got.checks)
    assert flagged


def test_broken_b_gives_the_kronecker_report(monkeypatch):
    group = get_group("A3")
    _break_b(monkeypatch, group, group.element((0, 1, 0)))
    got = run_identity_suite("A3", [(), (0,)], group=group)
    assert not got.passed
    assert report_text(got) == report_text(
        kronecker_report("A3", [(), (0,)], group=group))


def kronecker_holds(table) -> bool:
    try:
        return not any(table.inversion_failures(table.basis))
    except InvariantError:
        return False


def all_tables(group):
    """A maker of each table of the group: the regular one, then one per
    subset and flavor."""
    yield lambda: KLTable(group)
    for subset in every_subset(group.matrix.rank):
        for flavor in (ANTISPHERICAL, SPHERICAL):
            yield lambda s=subset, f=flavor: ParabolicKLTable(
                ParabolicContext(group, s, f))


@pytest.mark.parametrize("seed", range(8))
def test_shadow_decision_on_random_finite_rank3_matrices(seed):
    """On every table the shadow decision equals the Kronecker decision;
    with a fault drawn into a column or a block it still never holds
    where the Kronecker sums fail."""
    group = GroupTable(random_finite_rank3(seed))
    rng = random.Random(seed)
    for make in all_tables(group):
        table = make()
        assert table.inversion_holds() == kronecker_holds(table) is True
        if table.basis[-1].length < 2:
            continue
        fault = rng.choice([_move_coefficient, _drop_row] + [_move_term] * (
            not table.context.subset))
        faulty = make()
        faulty.build_all()
        fault(faulty, rng, rng.choice([-1, 1]))
        assert faulty.inversion_holds() <= kronecker_holds(faulty)


@pytest.mark.parametrize("edit", ["shorter column", "wider column"])
def test_a_clean_shadow_pass_on_malformed_columns(monkeypatch, edit):
    """The column of x replaced by the column of a shorter t of the same
    parity, or widened by an exponent of zeros: the shadow pass finds no
    failing row, but the Kronecker sums do or raise, and so does the
    suite."""
    group = get_group("B3")
    x = group.element((0, 1, 2, 1))
    t = group.element((0, 1))

    class Malformed(KLTable):
        def build_all(self):
            super().build_all()
            col = self.inverse_column(t if edit == "shorter column" else x)
            self._inv_cols[x.index] = col._replace(coeffs=np.pad(
                col.coeffs, ((0, 0), (0, edit == "wider column"))))
    table = Malformed(group)
    table.build_all()
    assert not any(table.shadow_failures(table.basis))
    assert not table.inversion_holds() and not kronecker_holds(table)
    monkeypatch.setattr(verify, "KLTable", Malformed)
    got = run_identity_suite("B3", [()], group=group)
    (check,) = [c for c in got.checks if c.check == "inversion-identity"]
    assert not check.passed
    assert report_text(got) == report_text(
        kronecker_report("B3", [()], group=group))


@pytest.mark.parametrize("spec,cap", [("A3", None), ("B3", None),
                                      ("H3", None), ("Aff-A2", 8)])
def test_columns_hold_on_every_clean_table(spec, cap):
    for make in all_tables(get_group(spec, cap)):
        table = make()
        table.build_all()
        assert table.columns_hold(), table.context


def _row_off_column(table, rng, step) -> None:
    """One row but the last of one inverse column, drawn by ``rng``,
    replaced by a basis element of lower id that is not below x."""
    leq = table.group.bruhat_leq
    off = {x: [y.index for y in table.basis
               if y.index < x.index and not leq(y, x)]
           for x in table.basis if x.length >= 2}
    x = rng.choice([x for x, ys in off.items() if ys])
    col = table.inverse_column(x)
    rows = col.rows.copy()
    rows[rng.randrange(len(rows) - 1)] = rng.choice(off[x])
    order = np.argsort(rows)
    _replace_column(table, x, rows[order], col.coeffs[order])


def _zero_exponent(table, rng, step) -> None:
    """One inverse column, drawn by ``rng``, padded by an exponent of
    zeros."""
    x = rng.choice(table.basis)
    col = table.inverse_column(x)
    _replace_column(table, x, col.rows, np.pad(col.coeffs, ((0, 0), (0, 1))))


@pytest.mark.parametrize("fault", [_drop_row, _row_off_column,
                                   _zero_exponent])
@pytest.mark.parametrize("spec", ["B3", "H3"])
def test_columns_fail_the_rule_and_the_scans_run_the_kernel(spec, fault):
    """A dropped row, a row off ``column_ids(x)`` or a padded exponent
    fails the rule, and the inverse and antispherical scans give the
    triple kernel's outcome."""
    group = get_group(spec)
    for seed in range(4):
        anti = ParabolicContext(group, (0,), ANTISPHERICAL)
        for table, scan in [
                (KLTable(group), verify.scan_monotonicity_inverse),
                (ParabolicKLTable(anti),
                 verify.scan_monotonicity_antispherical)]:
            table.build_all()
            fault(table, random.Random(seed), 1)
            assert not table.columns_hold(), seed
            assert outcome(scan, table) == kernel_outcome(scan, table), seed


@pytest.mark.parametrize("subset", [None, (0,)], ids=["regular", "I=1"])
def test_the_shadow_pass_builds_no_batch_of_its_own(monkeypatch, subset):
    """On a fresh H3 table every ``Batch`` that ``inversion_holds`` makes
    comes from the chunker: the shadow pass reads its chunk's."""
    makers = []

    class Spy(kernel.Batch):
        def __init__(self, *args):
            makers.append(sys._getframe(1).f_code.co_name)
            super().__init__(*args)
    monkeypatch.setattr(kernel, "Batch", Spy)
    group = get_group("H3")
    table = KLTable(group) if subset is None else ParabolicKLTable(
        ParabolicContext(group, subset, ANTISPHERICAL))
    assert table.inversion_holds()
    assert makers and set(makers) == {"chunks"}


def test_columns_hold_decides_each_stored_column_once(monkeypatch):
    """The rule reads ``column_ids`` once per stored column: a second
    call reads none, a column stored anew is read again, and one stored
    anew off the rule fails it."""
    calls = []

    def spy(self, x, _ids=kernel.ColumnTable.column_ids):
        calls.append(x.index)
        return _ids(self, x)
    group = get_group("B3")
    table = KLTable(group)
    table.build_all()
    monkeypatch.setattr(kernel.ColumnTable, "column_ids", spy)
    assert table.columns_hold()
    assert sorted(calls) == [x.index for x in group]
    calls.clear()
    assert table.columns_hold() and calls == []
    x = group.element((0, 1, 2, 1))
    col = table.inverse_column(x)
    _replace_column(table, x, col.rows, col.coeffs + 1)
    assert table.columns_hold() and calls == [x.index]
    _replace_column(table, x, col.rows[1:], col.coeffs[1:])
    assert not table.columns_hold()


def test_the_suite_checks_each_stored_column_once(monkeypatch):
    """Over a clean H3 suite the rule reads ``column_ids`` once per
    column of each table: the regular table and two per singleton."""
    calls = []

    def spy(self, x, _ids=kernel.ColumnTable.column_ids):
        if sys._getframe(1).f_code.co_name == "columns_hold":
            calls.append((self, x.index))
        return _ids(self, x)
    monkeypatch.setattr(kernel.ColumnTable, "column_ids", spy)
    report = run_identity_suite("H3", [(), (0,), (1,), (2,)])
    assert report.passed
    assert len(calls) == len(set(calls)) == 120 + 6 * 60
