"""The parabolic tables on the integer-id block kernel.

Canonical elements from the bar-invariance pass and inverse columns from
the shared prefix recursion are checked against the dict-of-LaurentPoly
solves, faults injected into the blocks of bar(m_z) must raise, the
exact-int fallback must give the same values, and random rank-3 Coxeter
matrices must keep the theorems the suite checks.
"""

import functools
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kllab import hecke, kernel
from kllab.coxeter import (
    INFINITY, CoxeterMatrix, GroupTable, parse_coxeter_spec,
)
from kllab.hecke import KLTable
from kllab.kernel import Block, InvariantError, block_terms
from kllab.laurent import LaurentPoly
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
    check_soergel_identification,
)
from kllab.verify import (
    scan_monotonicity_antispherical, scan_monotonicity_spherical,
)
from helpers import (
    ReferenceParabolic, get_group, get_kl, poly, reference_inversion_identity,
    reference_projected_bar, reference_scan_parabolic, replace_bar_terms,
    solved_b,
)
from test_batched import same_block
from test_kernel import assert_columns_match_reference, relabelled_matrix_file

FLAVORS = (SPHERICAL, ANTISPHERICAL)


@functools.lru_cache(maxsize=None)
def finite_reference(spec: str, subset, flavor: str) -> ReferenceParabolic:
    """The sparse reference of a quotient of a finite preset, shared by
    the tests that read it."""
    return ReferenceParabolic(
        ParabolicContext(get_group(spec), subset, flavor))


def assert_matches_reference(ctx: ParabolicContext, ref=None) -> None:
    table = ParabolicKLTable(ctx)
    ref = ref or ReferenceParabolic(ctx)
    for x in ctx.reps:
        assert table.canonical_basis_element(x).terms == \
            ref.canonical(x).terms, x
        assert block_terms(ctx.group, table.inverse_column(x)) == \
            ref.inverse_column(x), x
    assert all(isinstance(b, Block) for b in table._canonical.values())


class TestBlocksMatchReference:
    @pytest.mark.parametrize("spec,subset,flavor", [
        (spec, subset, flavor)
        for spec in ("A3", "B3")
        for subset in ((), (0,), (1,), (2,), (0, 1), (1, 2), (0, 2))
        for flavor in FLAVORS
    ] + [("H3", (), ANTISPHERICAL)] + [
        ("H3", subset, flavor)
        for subset in ((0,), (1,), (2,), (0, 1), (1, 2))
        for flavor in FLAVORS
    ])
    def test_finite(self, spec, subset, flavor):
        assert_matches_reference(
            ParabolicContext(get_group(spec), subset, flavor),
            finite_reference(spec, subset, flavor))

    @pytest.mark.parametrize("spec,cap,subset", [
        ("Aff-A2", 8, ()), ("Aff-A2", 8, (0,)), ("Aff-A2", 8, (1, 2)),
        ("I2(inf)", 20, ()), ("I2(inf)", 20, (0,)),
    ])
    def test_capped(self, spec, cap, subset):
        for flavor in FLAVORS:
            assert_matches_reference(
                ParabolicContext(get_group(spec, cap), subset, flavor))

    def test_relabelled_random_matrix(self, tmp_path):
        group = get_group(relabelled_matrix_file(tmp_path, seed=11), 6)
        for subset in ((), (0,), (1, 2)):
            for flavor in FLAVORS:
                assert_matches_reference(
                    ParabolicContext(group, subset, flavor))

    @pytest.mark.parametrize("spec,cap", [("B3", None), ("Aff-A2", 6)])
    def test_kl_bar_solve_is_the_empty_quotient(self, spec, cap):
        group = get_group(spec, cap)
        table = KLTable(group)
        ref = ReferenceParabolic(ParabolicContext(group, (), ANTISPHERICAL))
        for x in group:
            solved = solved_b(group, x)
            assert solved.terms == ref.canonical(x).terms
            assert solved == table.kl_basis_element(x)


class TestRecursionMatchesReference:
    """Every inverse column of every quotient, built by the prefix
    recursion, against the peel of the sparse reference.  Asking in
    decreasing id order makes each column a lone walk up from a short
    prefix; the antispherical wall terms show on A3 with I = {1} or {2}."""

    @pytest.mark.parametrize("spec", ["A3", "B3", "H3", "D4"])
    def test_every_subset_and_flavor(self, spec):
        group = get_group(spec)
        rank = group.matrix.rank
        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(rank), k)
                for k in range(rank + 1)):
            for flavor in FLAVORS:
                ctx = ParabolicContext(group, subset, flavor)
                table = ParabolicKLTable(ctx)
                ref = finite_reference(spec, subset, flavor)
                for x in reversed(ctx.reps):
                    assert block_terms(group, table.inverse_column(x)) == \
                        ref.inverse_column(x), (subset, flavor, x)


class TestBlockChecks:
    def test_inversion_identity_matches_reference(self):
        table = KLTable(get_group("B3"))
        table.build_all()
        g = table.group
        x = g.element((0, 1, 0, 2))
        col = table.inverse_column(x)
        coeffs = col.coeffs.astype(np.int64)
        coeffs[0, 4] += 1              # break h^{e,x}
        table._inv_cols[x.index] = kernel.InverseColumn(col.rows, coeffs)
        for xx in g:
            for y in g.downset(xx):
                assert table.check_inversion_identity(y, xx) == \
                    reference_inversion_identity(table, y, xx)
        assert not table.check_inversion_identity(g.identity, x)

    @pytest.mark.parametrize("spec,subset", [
        ("A3", (0, 1)), ("B3", (1,)), ("H3", (2,)), ("Aff-A2", (0,)),
    ])
    def test_scans_match_reference(self, spec, subset):
        group = get_group(spec, 6 if spec.startswith("Aff") else None)
        for flavor, scan in ((SPHERICAL, scan_monotonicity_spherical),
                             (ANTISPHERICAL, scan_monotonicity_antispherical)):
            ctx = ParabolicContext(group, subset, flavor)
            expected = reference_scan_parabolic(ReferenceParabolic(ctx))
            assert scan(ParabolicKLTable(ctx)) == expected
            assert expected[1] or flavor == ANTISPHERICAL

    def test_soergel_block_comparison_reports_mismatches(self):
        kl = get_kl("A3")
        g = kl.group
        anti = ParabolicKLTable(ParabolicContext(g, (0,), ANTISPHERICAL))
        assert check_soergel_identification(anti, kl) == []
        x = anti.context.reps[-1]
        col = anti.inverse_column(x)
        coeffs = col.coeffs.astype(np.int64)
        coeffs[0, -1] += 1
        anti._inv_cols[x.index] = kernel.InverseColumn(col.rows, coeffs)
        (mismatch,) = check_soergel_identification(anti, kl)
        assert mismatch[:2] == (g.identity, x)


class TestInjectedFaults:
    """A2 with I = {1}: the representatives are e < s2 < s2s1."""

    def setup_method(self):
        self.ctx = ParabolicContext(get_group("A2"), (0,), ANTISPHERICAL)
        g = self.ctx.group
        self.e, self.s2, self.top = g.identity, g.element((1,)), \
            g.element((1, 0))

    def solve(self):
        return ParabolicKLTable(self.ctx).canonical_basis_element(self.top)

    def test_clean(self):
        assert self.solve().terms == {self.top: LaurentPoly.one(),
                                      self.s2: poly({1: 1})}

    def test_non_antisymmetric_coefficient(self):
        def edit(terms):
            terms[self.e] = terms.get(self.e, LaurentPoly.zero()) \
                + poly({1: 1})
        replace_bar_terms(self.ctx, self.top, edit)
        with pytest.raises(InvariantError, match="not antisymmetric"):
            self.solve()

    def test_stray_row(self):
        stray = self.ctx.group.element((0, 1, 0))

        def edit(terms):
            terms[stray] = poly({1: 1, -1: -1})
        replace_bar_terms(self.ctx, self.top, edit)
        with pytest.raises(InvariantError, match="outside the rows"):
            self.solve()

    def test_non_self_dual_result(self):
        def edit(terms):
            terms[self.top] = terms[self.top] + poly({1: 1, -1: -1})
        replace_bar_terms(self.ctx, self.top, edit)
        with pytest.raises(InvariantError, match="non-self-dual"):
            self.solve()


def test_exact_fallback_under_a_small_limit(monkeypatch):
    """With the int64 limit at 8 every pass must give its int64 attempt up
    and redo the column in exact ints, with the same results."""
    monkeypatch.setattr(kernel, "INT64_LIMIT", 8)
    dtypes = {"_bar_solve_chunk": [], "_inverse_steps": []}

    def bar_spy(*args, _solve=kernel._bar_solve_chunk):
        dtypes["_bar_solve_chunk"].append(args[-1])
        return _solve(*args)

    def step_spy(self, batch, known,
                 _step=kernel.ColumnTable._inverse_steps):
        cols = _step(self, batch, known)
        # an int64 step is stored narrowed
        dtypes["_inverse_steps"].extend(
            object if col.coeffs.dtype == object else np.int64
            for col in cols)
        return cols
    monkeypatch.setattr(kernel, "_bar_solve_chunk", bar_spy)
    monkeypatch.setattr(kernel.ColumnTable, "_inverse_steps", step_spy)
    group = GroupTable(get_group("B3").matrix)
    for subset in ((), (1,)):
        for flavor in FLAVORS:
            assert_matches_reference(ParabolicContext(group, subset, flavor))
    for seen in dtypes.values():
        assert object in seen and np.int64 in seen
    kl = KLTable(group)
    assert all(kl.kl_basis_element(x) == solved_b(group, x) for x in group)
    assert all(kl.check_inversion_identity(y, x)
               for x in group for y in group.downset(x))
    assert kl.inverse_column(group.elements[-1]).coeffs.dtype == object


def test_both_solves_need_no_recursion():
    """Length 160 in the cap-300 group: a solve recursing once per length
    step would pass the limit.  (At length 300 the solve of b_x, with I
    empty, holds all 600 blocks of bar(delta_z), about 18 M terms.)"""
    group = GroupTable(parse_coxeter_spec("I2(inf)"), 300)
    x = group.element(tuple(i % 2 for i in range(160)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        b = solved_b(group, x)
        sph = ParabolicKLTable(ParabolicContext(group, (1,), SPHERICAL))
        c = sph.canonical_basis_element(x)
        col = sph.inverse_column(x)
    finally:
        sys.setrecursionlimit(old)
    assert len(b.terms) == 320
    assert b.coefficient(group.identity) == poly({160: 1})
    assert len(c.terms) == 161
    assert c.coefficient(group.identity) == poly({160: 1})
    assert block_terms(group, col) == {
        x: LaurentPoly.one(), group.element(x.word[:-1]): poly({1: 1})}


_BONDS = st.sampled_from([2, 3, 4, 5, 6, 7, INFINITY])


@settings(max_examples=30, deadline=None)
@given(st.tuples(_BONDS, _BONDS, _BONDS), st.integers(2, 4),
       st.sets(st.integers(0, 2), max_size=2))
def test_random_rank3_matrices(bonds, cap, subset):
    a, b, c = bonds
    group = GroupTable(CoxeterMatrix([[1, a, b], [a, 1, c], [b, c, 1]]), cap)
    for flavor in FLAVORS:
        ctx = ParabolicContext(group, subset, flavor)
        for x, got in zip(ctx.reps, hecke.bar_blocks(ctx, ctx.reps)):
            assert same_block(got, reference_projected_bar(ctx, x)), x
        assert_matches_reference(ctx)
    anti = ParabolicKLTable(ParabolicContext(group, subset, ANTISPHERICAL))
    assert scan_monotonicity_antispherical(anti)[1] == []
    assert check_soergel_identification(anti, KLTable(group)) == []
    assert_columns_match_reference(KLTable(group))


@pytest.mark.parametrize("spec,cap", [("H3", None), ("Aff-A2", 8)])
def test_empty_subset_reads_the_group_downsets(spec, cap):
    """With I empty, a context of either flavor and the regular table hand
    out the group's own downset arrays, not copies of them."""
    group = get_group(spec, cap)
    contexts = [ParabolicContext(group, (), flavor) for flavor in FLAVORS]
    table = KLTable(group)
    for x in group:
        ids = group.downset_ids(x)
        assert all(ctx.downset_ids(x) is ids for ctx in contexts), x
        assert table.column_ids(x) is ids, x
