"""Parabolic canonical bases gathered from b by Soergel's formulas, and
the certificate by which the suite trusts them.

The gather must equal the bar-invariance solve block for block, ids,
exponents, values, dtype and row norm, on every subset and flavor of the
finite groups below, on the antispherical quotients of affine groups
under a cap and on random finite rank-3 matrices; a capped spherical
quotient takes the solve.  ``hecke.certified`` holds on every clean
table, regular or parabolic, gathered or solved, and fails under faults
in the canonical blocks, the inverse columns and the blocks of bar(m_z);
under each such fault the suite reports what the solve route reports.
"""

import itertools
import random

import numpy as np
import pytest

from kllab import cli, hecke, kernel, parabolic, verify
from kllab.coxeter import GroupTable
from kllab.hecke import KLTable, bar_blocks, certified
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from kllab.verify import run_identity_suite
from helpers import coset_split, get_group, poly, replace_bar_terms
from test_inversion_decision import _faulty
from test_scans import FAULTS, _move_coefficient, random_finite_rank3
from test_suite_kernel import _break_b


def every_table(group, flavors=(ANTISPHERICAL, SPHERICAL)):
    """(subset, flavor) for every generator subset and flavor."""
    rank = group.matrix.rank
    return [(subset, flavor) for k in range(rank + 1)
            for subset in itertools.combinations(range(rank), k)
            for flavor in flavors]


def assert_same_block(got, want) -> None:
    for a, b in zip(got.terms(), want.terms()):
        assert np.array_equal(a, b) and a.dtype == b.dtype
    assert got.row_norm == want.row_norm
    assert type(got.row_norm) is type(want.row_norm)


def assert_gather_equals_solve(group, flavors=(ANTISPHERICAL, SPHERICAL)):
    b = KLTable(group)
    for subset, flavor in every_table(group, flavors):
        gathered = ParabolicKLTable(ParabolicContext(group, subset, flavor), b)
        assert gathered.b is b, (subset, flavor)
        solved = ParabolicKLTable(ParabolicContext(group, subset, flavor))
        for x, block in zip(gathered.basis,
                            gathered.canonical_blocks(gathered.basis)):
            assert_same_block(block, solved.canonical_block(x))


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "D4", "G2", "A4"])
def test_the_gather_equals_the_solve(spec):
    assert_gather_equals_solve(get_group(spec))


@pytest.mark.parametrize("spec,cap", [("Aff-A2", 8), ("Aff-A2", 11),
                                      ("I2(inf)", 12), ("Aff-A1", 20)])
def test_the_antispherical_gather_equals_the_solve_under_a_cap(spec, cap):
    assert_gather_equals_solve(get_group(spec, cap), (ANTISPHERICAL,))


@pytest.mark.parametrize("seed", range(6))
def test_the_gather_equals_the_solve_on_random_finite_rank3(seed):
    assert_gather_equals_solve(GroupTable(random_finite_rank3(seed)))


def test_the_coset_map_matches_the_reference():
    for spec, cap in [("B3", None), ("H3", None), ("Aff-A2", 8)]:
        group = get_group(spec, cap)
        for subset, _ in every_table(group, (SPHERICAL,)):
            rep, up, top = ParabolicContext(group, subset, SPHERICAL).cosets()
            want_rep, want_up = coset_split(group, frozenset(subset))
            assert np.array_equal(rep, want_rep)
            assert np.array_equal(up, want_up)
            if group.is_complete():     # w_I x, of length l(w_I) + l(x)
                reps = np.flatnonzero(rep == np.arange(len(group)))
                assert np.array_equal(rep[top[reps]], reps)
                assert len(set(up[top[reps]].tolist())) == 1


@pytest.mark.parametrize("spec,cap", [("Aff-A2", 8), ("I2(inf)", 12)])
def test_capped_spherical_quotients_take_the_solve(monkeypatch, capsys,
                                                   spec, cap):
    """Under a cap w_I x may lie beyond it: a spherical table given b
    solves, in the library and in ``kllab parabolic``, while an
    antispherical one gathers."""
    group = get_group(spec, cap)
    solved = []

    def spy(*args, _solve=kernel._bar_solve_chunk):
        solved.extend(x.index for x in args[1].xs)
        return _solve(*args)
    monkeypatch.setattr(kernel, "_bar_solve_chunk", spy)
    b = KLTable(group)
    sph = ParabolicKLTable(ParabolicContext(group, (0,), SPHERICAL), b)
    anti = ParabolicKLTable(ParabolicContext(group, (0,), ANTISPHERICAL), b)
    assert sph.b is None and anti.b is b
    anti.build_all()
    assert solved == []
    sph.build_all()
    assert sorted(solved) == [x.index for x in sph.basis]
    for flavor in (ANTISPHERICAL, SPHERICAL):
        solved.clear()
        assert cli.main(["parabolic", "--group", spec, "--cap", str(cap),
                         "--parabolic", "1", "--flavor", flavor]) == 0
        assert bool(solved) == (flavor == SPHERICAL)
    capsys.readouterr()


@pytest.mark.parametrize("spec,cap", [("A3", None), ("B3", None),
                                      ("H3", None), ("Aff-A2", 8)])
def test_the_certificate_holds_on_every_clean_table(spec, cap):
    """Regular, gathered and solved tables; the blocks of bar(m_x) it
    built are dropped once it is decided."""
    group = get_group(spec, cap)
    b = KLTable(group)
    assert certified(b)
    for subset, flavor in every_table(group):
        context = ParabolicContext(group, subset, flavor)
        for table in (ParabolicKLTable(context, b), ParabolicKLTable(
                ParabolicContext(group, subset, flavor))):
            assert certified(table), (subset, flavor, table.b)
            assert "_hecke_bar_blocks" not in vars(table.context)


def _certified_with_bar(table, word, edit) -> bool:
    """The certificate with the block of bar(m_z), z = ``word``, edited."""
    z = table.group.element(word)
    with pytest.MonkeyPatch.context() as patch:
        def bars(space, xs, _bars=bar_blocks):
            if z.index not in hecke._bar_memo(space):
                _bars(space, xs)
                replace_bar_terms(space, z, lambda terms: edit(z, terms))
            return _bars(space, xs)
        patch.setattr(hecke, "bar_blocks", bars)
        return certified(table)


BAR_EDITS = {
    "diagonal-times-2": lambda z, terms: terms.update({z: poly({0: 2})}),
    "diagonal-plus-v": lambda z, terms: terms.update({z: poly({0: 1, 1: 1})}),
    "stray-row": lambda z, terms: terms.update({next(
        y for y in z.group if y.length == z.length and y != z): poly({1: 1})}),
    "stray-exponent": lambda z, terms: terms.update({
        z.group.identity: terms.get(z.group.identity, poly({}))
        + poly({z.length + 1: 1})}),
}


@pytest.mark.parametrize("edit", BAR_EDITS)
@pytest.mark.parametrize("subset,flavor", [((), ANTISPHERICAL),
                                           ((0,), ANTISPHERICAL),
                                           ((0,), SPHERICAL)])
def test_the_certificate_fails_on_a_broken_bar_block(subset, flavor, edit):
    group = get_group("B3")
    b = KLTable(group)
    table = b if not subset else ParabolicKLTable(
        ParabolicContext(group, subset, flavor), b)
    assert not _certified_with_bar(table, (1, 2), BAR_EDITS[edit])
    assert certified(table)


def _move_term(table, rng, step) -> None:
    """One term of one canonical block, drawn by ``rng``, moved by
    ``step``."""
    x = rng.choice([x for x in table.basis if x.length >= 2])
    block = table.canonical_block(x)
    values = block.values.astype(np.int64)
    values[rng.randrange(block.size)] += step
    table._canonical[x.index] = block._replace(values=values)


@pytest.mark.parametrize("flavor", [ANTISPHERICAL, SPHERICAL])
@pytest.mark.parametrize("seed", range(4))
def test_the_certificate_fails_on_a_moved_term(flavor, seed):
    """One term of a gathered block, or one inverse coefficient, moved."""
    group = get_group("H3")
    for inject in (_move_term, _move_coefficient):
        for step in (-1, 1):
            table = ParabolicKLTable(ParabolicContext(group, (1,), flavor),
                                     KLTable(group))
            table.build_all()
            inject(table, random.Random(seed), step)
            assert not certified(table), (inject.__name__, step)


def test_a_gather_from_a_broken_b_fails_its_certificate():
    """b_{2,1,2} of B3 broken: the spherical quotient by I = {2} reads
    it as w_I x for x = 1,2, and its certificate fails."""
    group = get_group("B3")
    b = KLTable(group)
    b.build_all()
    x = group.element((1, 0, 1))
    block = b.canonical_block(x)
    b._canonical[x.index] = block._replace(values=block.values * 2)
    table = ParabolicKLTable(ParabolicContext(group, (1,), SPHERICAL), b)
    assert not certified(table)
    assert certified(ParabolicKLTable(
        ParabolicContext(group, (1,), ANTISPHERICAL), b))


def test_the_certificate_runs_in_exact_ints_under_a_small_limit(monkeypatch):
    dtypes = []

    def spy(*args, _add=kernel.add_blocks):
        if args[8:] and args[8] is not None:
            dtypes.append(args[8][0].dtype)
        return _add(*args)
    monkeypatch.setattr(kernel, "add_blocks", spy)
    monkeypatch.setattr(kernel, "INT64_LIMIT", 8)
    group = GroupTable(get_group("B3").matrix)
    b = KLTable(group)
    for table in (b, ParabolicKLTable(
            ParabolicContext(group, (0,), SPHERICAL), b)):
        dtypes.clear()
        assert certified(table)
        assert np.dtype(object) in dtypes


def report_key(report) -> tuple:
    """The text report, and the ids and witness exponent of every
    violation of each check, read off the record's arrays."""
    return "\n".join(report.text_lines()), [
        [np.concatenate(a).tolist() for a in zip(*(
            arrays for arrays, _ in c.violations._parts))]
        for c in report.checks]


def solve_route_report(*args, **kwargs):
    """The suite's report with every certificate failing: the I = empty
    oracle and every quotient solve."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "certified", lambda table: False)
        return run_identity_suite(*args, **kwargs)


def assert_solve_route_report(spec, subsets) -> bool:
    """The suite's report equals the solve route's; whether it passed."""
    group = get_group(spec)
    got = run_identity_suite(spec, subsets, group=group)
    assert report_key(got) == report_key(
        solve_route_report(spec, subsets, group=group))
    return got.passed


@pytest.mark.parametrize("step", [-1, 1], ids=["lowered", "raised"])
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("spec", ["B3", "H3"])
def test_injected_faults_give_the_solve_route_report(monkeypatch, spec,
                                                     fault, step):
    failed = 0
    for seed in range(4):
        with monkeypatch.context() as patch:
            _faulty(patch, fault, seed, step, get_group(spec))
            failed += not assert_solve_route_report(spec, [(), (0,), (1,)])
    assert failed


def test_a_broken_b_gives_the_solve_route_report(monkeypatch):
    group = get_group("B3")
    _break_b(monkeypatch, group, group.element((1, 0, 1)))
    assert not assert_solve_route_report("B3", [(), (0,), (1,)])


@pytest.mark.parametrize("edit", BAR_EDITS)
@pytest.mark.parametrize("subset,flavor", [((), ANTISPHERICAL),
                                           ((0,), SPHERICAL)])
def test_a_broken_bar_block_gives_the_solve_route_report(
        monkeypatch, subset, flavor, edit):
    """bar(m_z), z = 2,3, edited in every module of the subset and flavor
    that the suite builds, before any reader sees it."""
    group = get_group("B3")
    z = group.element((1, 2))

    def bars(space, xs, _bars=bar_blocks):
        if tuple(sorted(space.subset)) == subset and (
                space.flavor == flavor or not subset) \
                and z.index not in hecke._bar_memo(space):
            _bars(space, xs)
            replace_bar_terms(space, z, lambda terms: BAR_EDITS[edit](
                z, terms))
        return _bars(space, xs)
    monkeypatch.setattr(hecke, "bar_blocks", bars)
    monkeypatch.setattr(parabolic, "bar_blocks", bars)
    assert not assert_solve_route_report("B3", [(), (0,), (1,)])
