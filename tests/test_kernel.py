"""The integer-id block kernel: inverse columns and the block scans.

Every column the prefix recursion stores is checked against the sparse
dict-of-``LaurentPoly`` peel, the block scans against the per-triple
loops, and the int64 overflow guard against exact values.
"""

import random
import sys

import numpy as np
import pytest

from kllab import kernel
from kllab.coxeter import GroupTable, parse_coxeter_spec
from kllab.hecke import HeckeElt, InvariantError, KLTable, bar_element
from kllab.kernel import InverseColumn, block_terms
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


def assert_columns_match_reference(table: KLTable,
                                   order=lambda group: group) -> None:
    for x in order(table.group):
        col = table.inverse_column(x)
        ref = reference_inverse_column(table, x)
        got = block_terms(table.group, col)
        assert got == ref, x
        assert list(got) == sorted(ref), x
        assert col.size == sum(len(h.exponents()) for h in ref.values()), x


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

    @pytest.mark.parametrize("spec,cap", [("B3", None), ("Aff-A2", 8)])
    def test_lone_walks(self, spec, cap):
        """A lone request stores only its own column; in decreasing id
        order each column walks up from a short prefix."""
        table = KLTable(get_group(spec, cap))
        top = table.group.elements[-1]
        table.inverse_column(top)
        assert set(table._inv_cols) == {0, top.index}
        assert_columns_match_reference(
            table, lambda group: reversed(group.elements))


class TestInverseColumnView:
    def test_plain_arrays(self):
        """A column is its rows and coefficients and nothing else; rows are
        read by ``inverse_kl_poly`` and decoded whole by ``block_terms``."""
        table = get_kl("B3")
        g = table.group
        x = g.elements[-1]
        col = table.inverse_column(x)
        assert isinstance(col, InverseColumn)
        assert col._fields == ("rows", "coeffs")
        assert not hasattr(col, "__dict__")
        assert not any(hasattr(col, name) for name in (
            "get", "items", "keys", "values", "_cache", "group"))
        rows, exps, values = col.terms()
        assert values.all() and len(values) == col.size
        assert (col.coeffs[np.searchsorted(col.rows, rows), exps]
                == values).all()
        decoded = block_terms(g, col)
        assert [y.index for y in decoded] == col.rows.tolist()
        for pos, y in enumerate(g.downset(x)):
            assert y.index == col.rows[pos]
            assert decoded[y] == table.inverse_kl_poly(y, x)
        top_other = g.elements[-2]
        small = table.inverse_column(g.element((0,)))
        assert table.inverse_kl_poly(top_other, g.element((0,))).is_zero()
        assert top_other not in block_terms(g, small)

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
    table._inv_cols[x.index] = InverseColumn(col.rows, coeffs)


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
    """The step delta_x = delta_{x'} (b_s - v) is linear in the column of
    x', so with the stored column of st in A2 scaled by K^2 the column of
    sts must be K^2 times the true one.  Its bound is
    max|prev| (2 + sum |mu|) = K^2 (2 + mu(s, st)) = 3 K^2."""

    @pytest.mark.parametrize("k,dtype", [
        (2 ** 29, np.int64),    # bound 3 * 2^58 stays below 2^62
        (2 ** 31, object),      # K^2 = 2^62 already reaches the limit
        (2 ** 40, object),      # K^2 = 2^80 would wrap in int64
    ])
    def test_route_and_exact_values(self, k, dtype):
        g = get_group("A2")
        table = KLTable(g)
        st, sts = g.element((0, 1)), g.element((0, 1, 0))
        col = table.inverse_column(st)
        scaled = col.coeffs.astype(object) * (k * k)
        table._inv_cols[st.index] = InverseColumn(
            col.rows, scaled if dtype is object else scaled.astype(dtype))
        got = table.inverse_column(sts)
        assert got.coeffs.dtype == dtype
        assert block_terms(g, got) == {
            y: h * poly({0: k * k})
            for y, h in reference_inverse_column(table, sts).items()}

    @staticmethod
    def step_bound(table: KLTable, x) -> int:
        """max|h^{z,x'}| (2 + sum of mu(y, z) over the rows z of x' with
        zs > z and every y < z with ys < y), for x = x's."""
        g = table.group
        prefix, s = g.element(x.word[:-1]), x.word[-1]
        col = block_terms(g, table.inverse_column(prefix))
        mus = sum(table.mu(y, z) for z in col
                  if g.mult_gen(z, s).length > z.length
                  for y in g.downset(z)
                  if g.mult_gen(y, s).length < y.length)
        return max(abs(c) for h in col.values() for _, c in h.items()) \
            * (2 + mus)

    @pytest.mark.parametrize("spec,word", [
        ("B3", (0, 1, 0, 2, 1, 0, 2, 1, 2)), ("H3", (0, 1, 0, 1, 2, 1, 0)),
    ])
    def test_step_bound_picks_the_dtype(self, monkeypatch, spec, word):
        """int64 (stored narrowed) below the bound, exact ints at and
        above it, with the same values either way."""
        group = get_group(spec)
        x = group.element(word)
        assert x.word == word
        expected = block_terms(group, get_kl(spec).inverse_column(x))
        bound = self.step_bound(get_kl(spec), x)
        assert bound > 8
        for limit, exact in ((bound + 1, False), (bound, True),
                             (bound - 1, True)):
            table = KLTable(group)
            table.inverse_column(group.element(word[:-1]))
            monkeypatch.setattr(kernel, "INT64_LIMIT", limit)
            col = table.inverse_column(x)
            monkeypatch.undo()
            assert (col.coeffs.dtype == object) == exact
            assert col.coeffs.dtype in (object, np.int8)
            assert block_terms(group, col) == expected


def test_v_inverse_terms_must_cancel():
    """A constant term in h^{s,st} of A2 (which lies in vZ[v]) leaves
    -v^{-1} in row s of the step to sts, since ss < s."""
    g = get_group("A2")
    table = KLTable(g)
    s, st, sts = g.element((0,)), g.element((0, 1)), g.element((0, 1, 0))
    col = table.inverse_column(st)
    coeffs = col.coeffs.astype(np.int64)
    coeffs[int(np.searchsorted(col.rows, s.index)), 0] = 1
    table._inv_cols[st.index] = InverseColumn(col.rows, coeffs)
    with pytest.raises(InvariantError, match=r"inverse polynomial at "
                       r"\(<1>,<1,2,1>\) has a v\^-1 term"):
        table.inverse_column(sts)


def test_deep_elements_need_no_recursion():
    group = GroupTable(parse_coxeter_spec("I2(inf)"), 300)
    x = group.element(tuple(i % 2 for i in range(300)))
    table = KLTable(group)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        down = group.downset(x)
        b = table.kl_basis_element(x)
        bar = bar_element(HeckeElt.standard(group, x))
        col = table.inverse_column(x)
    finally:
        sys.setrecursionlimit(old)
    assert len(down) == 600
    assert b.coefficient(group.identity) == poly({300: 1})
    assert bar.coefficient(x) == ONE
    assert table.inverse_kl_poly(group.identity, x) == poly({300: 1})
    assert col.rows[0] == group.identity.index
