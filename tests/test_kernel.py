"""The integer-id block kernel: inverse columns and the block scans.

Every column the kernel stores is checked against the sparse
dict-of-``LaurentPoly`` solve it replaced, the block scans against the
per-triple loops, and the int64 overflow guard against exact values.
"""

import random
import sys

import numpy as np
import pytest

from kllab.coxeter import GroupTable, parse_coxeter_spec
from kllab.hecke import InverseColumn, KLTable, bar_delta
from kllab.laurent import LaurentPoly
from kllab.verify import scan_monotonicity_classical, scan_monotonicity_inverse
from helpers import (
    get_group, get_kl, poly, reference_inverse_column,
    reference_scan_classical, reference_scan_inverse, store_b,
)

ONE = LaurentPoly.one()


def relabelled_matrix_file(tmp_path, seed: int) -> str:
    """A random rank-3 Coxeter matrix under a random labelling, as file:."""
    rng = random.Random(seed)
    perm = list(range(1, 4))
    rng.shuffle(perm)
    lines = ["rank 3"]
    for s, t in [(1, 2), (1, 3), (2, 3)]:
        order = rng.choice(["2", "3", "4", "5", "6", "inf"])
        lines.append(f"{perm[s - 1]} {perm[t - 1]} {order}")
    path = tmp_path / f"random{seed}.txt"
    path.write_text("\n".join(lines) + "\n")
    return f"file:{path}"


def assert_columns_match_reference(table: KLTable) -> None:
    for x in table.group:
        col = table.inverse_column(x)
        ref = reference_inverse_column(table, x)
        assert dict(col.items()) == ref, x
        assert len(col) == len(ref) and set(col) == set(ref)


class TestColumnsMatchReference:
    @pytest.mark.parametrize("spec,cap", [
        ("A3", None), ("B3", None), ("H3", None), ("D4", None),
        ("Aff-A2", 8), ("I2(inf)", 20),
    ])
    def test_presets(self, spec, cap):
        assert_columns_match_reference(KLTable(get_group(spec, cap)))

    def test_relabelled_random_matrix(self, tmp_path):
        spec = relabelled_matrix_file(tmp_path, seed=7)
        group = GroupTable(parse_coxeter_spec(spec), 6)
        assert_columns_match_reference(KLTable(group))


class TestInverseColumnView:
    def test_mapping_protocol(self):
        table = get_kl("B3")
        g = table.group
        x = g.elements[-1]
        col = table.inverse_column(x)
        assert isinstance(col, InverseColumn)
        assert [y.index for y in col] == col.rows.tolist()
        assert col[g.identity] == table.inverse_kl_poly(g.identity, x)
        assert col.get(g.identity) is col.get(g.identity)  # decoded once
        top_other = g.elements[-2]
        small = table.inverse_column(g.element((0,)))
        assert small.get(top_other) is None
        assert top_other not in small
        with pytest.raises(KeyError):
            small[top_other]

    def test_blocks_are_read_only_and_narrow(self):
        table = get_kl("H3")
        col = table.inverse_column(table.group.elements[-1])
        assert col.coeffs.dtype == np.int8
        assert col.coeffs.shape == (len(col.rows), 16)
        with pytest.raises(ValueError):
            col.coeffs[0, 0] = 1


def _replace_coefficient(table: KLTable, x, z, exp: int, delta: int) -> None:
    """Store column x again with delta added to the v^exp term of h^{z,x}."""
    col = table.inverse_column(x)
    coeffs = col.coeffs.astype(np.int64)
    coeffs[int(np.searchsorted(col.rows, z.index)), exp] += delta
    table._inv_cols[x.index] = InverseColumn(table.group, col.rows, coeffs)


class TestBlockScansReportInjectedFaults:
    @pytest.mark.parametrize("word,below,exp,delta", [
        ((0, 1, 2, 1), (), 4, -1),       # rhs loses its top term
        ((0, 1, 2), (0,), 2, 1),         # lhs gains a term for longer x
        ((0, 1, 0, 2), (1,), 0, -1),     # a negative term below the gap
    ])
    def test_inverse_scan(self, word, below, exp, delta):
        table = KLTable(get_group("B3"))
        table.build_all()
        g = table.group
        _replace_coefficient(table, g.element(word), g.element(below),
                             exp, delta)
        expected = reference_scan_inverse(table)
        assert expected[1]
        assert scan_monotonicity_inverse(table) == expected

    def test_classical_scan(self):
        table = KLTable(get_group("B3"))
        table.build_all()
        g = table.group
        x = g.element((0, 1, 2, 1))
        z = g.element((1,))
        terms = dict(table.kl_basis_element(x).terms)
        terms[z] = terms[z] - poly({1: 1})
        store_b(table, x, terms)
        expected = reference_scan_classical(table)
        assert expected[1]
        assert scan_monotonicity_classical(table) == expected

    def test_clean_scans_match_reference(self):
        table = KLTable(get_group("Aff-A2", 6))
        assert scan_monotonicity_inverse(table) == \
            reference_scan_inverse(table)
        assert scan_monotonicity_classical(table) == \
            reference_scan_classical(table)


class TestOverflowGuard:
    """A2 with b_{s}, b_{t}, b_{st} replaced by unitriangular elements whose
    coefficients K v and K^2 v^2 make the column of st be
    1, K v, K v, K^2 v^2 exactly."""

    @pytest.mark.parametrize("k,dtype", [
        (2 ** 29, np.int64),    # bound 2^60 + 1 stays below 2^62
        (2 ** 31, object),      # K^2 = 2^62 already reaches the limit
        (2 ** 40, object),      # K^2 = 2^80 would wrap in int64
    ])
    def test_route_and_exact_values(self, k, dtype):
        g = get_group("A2")
        table = KLTable(g)
        e, s, t = g.identity, g.element((0,)), g.element((1,))
        x = g.element((0, 1))
        kv, kkv = poly({1: k}), poly({2: k * k})
        store_b(table, e, {e: ONE})
        store_b(table, s, {s: ONE, e: kv})
        store_b(table, t, {t: ONE, e: kv})
        store_b(table, x, {x: ONE, s: kv, t: kv, e: kkv})
        col = table.inverse_column(x)
        assert col.coeffs.dtype == dtype
        assert dict(col.items()) == {x: ONE, s: kv, t: kv, e: kkv}
        assert dict(col.items()) == reference_inverse_column(table, x)


def test_deep_elements_need_no_recursion():
    group = GroupTable(parse_coxeter_spec("I2(inf)"), 300)
    x = group.element(tuple(i % 2 for i in range(300)))
    table = KLTable(group)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        down = group.downset(x)
        b = table.kl_basis_element(x)
        bar = bar_delta(group, x)
        col = table.inverse_column(x)
    finally:
        sys.setrecursionlimit(old)
    assert len(down) == 600
    assert b.coefficient(group.identity) == poly({300: 1})
    assert bar.coefficient(x) == ONE
    assert col[group.identity] == poly({300: 1})
