"""Hecke algebra arithmetic, the canonical basis, and both polynomial
families.

The two b-basis routes (length recursion with mu-corrections vs the
bar-invariance triangular solve of the quotient with I empty, read
through ``helpers.solved_b``) are independent code paths; their
agreement is the central oracle here.  Frozen values below were either
expanded by hand from the defining relations or produced by the solve
route and cross-checked.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kllab import hecke, kernel
from kllab.coxeter import CapExceededError
from kllab.hecke import (
    HeckeElt, InvariantError, KLTable, bar_element, mult_b_gen,
    mult_delta_gen,
)
from kllab.kernel import block_terms
from kllab.laurent import LaurentPoly
from helpers import (
    SymmetricOracle, get_group, get_kl, poly, solved_b, store_b,
)

V = LaurentPoly.v()
ONE = LaurentPoly.one()


def delta(table, word):
    return HeckeElt.standard(table, table.element(word))


class TestDeltaMultiplication:
    def test_identity_times_generator(self):
        g = get_group("A2")
        assert mult_delta_gen(delta(g, ()), 0) == delta(g, (0,))

    def test_quadratic_relation(self):
        # delta_s^2 = delta_e + (v^{-1} - v) delta_s
        g = get_group("A2")
        out = mult_delta_gen(delta(g, (0,)), 0)
        assert out == HeckeElt(g, {g.identity: ONE,
                                   g.element((0,)): poly({-1: 1, 1: -1})})

    def test_b_s_times_delta_s(self):
        # (delta_s + v) delta_s = delta_e + v^{-1} delta_s, expanded by hand
        g = get_group("A2")
        bs = delta(g, (0,)) + delta(g, ()).scaled(V)
        out = mult_delta_gen(bs, 0)
        assert out == HeckeElt(g, {g.identity: ONE,
                                   g.element((0,)): poly({-1: 1})})

    def test_left_side(self):
        g = get_group("A2")
        out = mult_delta_gen(delta(g, (1,)), 0, "left")
        assert out == delta(g, (0, 1))

    def test_length_additive_products(self):
        # folding delta-multiplications along a reduced word gives delta_x
        g = get_group("B2")
        for x in g:
            acc = delta(g, ())
            for s in x.word:
                acc = mult_delta_gen(acc, s)
            assert acc == HeckeElt.standard(g, x)

    def test_cap_overflow_propagates(self):
        g = get_group("I2(inf)", 3)
        top = g.elements[-1]
        s = next(t for t in range(2) if t not in g.descents(top, "right"))
        with pytest.raises(CapExceededError):
            mult_delta_gen(HeckeElt.standard(g, top), s)


class TestBMultiplication:
    def test_b_s_from_identity(self):
        g = get_group("A2")
        out = mult_b_gen(delta(g, ()), 0)
        assert out == HeckeElt(g, {g.element((0,)): ONE, g.identity: V})

    def test_descent_case(self):
        # delta_s b_s = delta_e + v^{-1} delta_s
        g = get_group("A2")
        out = mult_b_gen(delta(g, (0,)), 0)
        assert out == HeckeElt(g, {g.identity: ONE,
                                   g.element((0,)): poly({-1: 1})})

    def test_b_s_squared(self):
        # b_s b_s = (v + v^{-1}) b_s
        g = get_group("A2")
        bs = mult_b_gen(delta(g, ()), 0)
        assert mult_b_gen(bs, 0) == bs.scaled(poly({1: 1, -1: 1}))


class TestBar:
    def test_bar_identity(self):
        g = get_group("A2")
        assert bar_element(delta(g, ())) == delta(g, ())

    def test_bar_generator(self):
        # bar(delta_s) = delta_s + (v - v^{-1}) delta_e
        g = get_group("A2")
        out = bar_element(delta(g, (0,)))
        assert out == HeckeElt(g, {g.element((0,)): ONE,
                                   g.identity: poly({1: 1, -1: -1})})

    def test_bar_fixes_b_s(self):
        g = get_group("A2")
        bs = mult_b_gen(delta(g, ()), 0)
        assert bar_element(bs) == bs

    @pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
    def test_bar_fixes_whole_kl_basis(self, spec):
        table = get_kl(spec)
        for x in table.group:
            b = table.kl_basis_element(x)
            assert bar_element(b) == b

    def test_bar_fixes_kl_basis_sampled_h3(self):
        table = get_kl("H3")
        for x in list(table.group)[::17]:
            b = table.kl_basis_element(x)
            assert bar_element(b) == b

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(0, 7),
                           st.dictionaries(st.integers(-3, 3),
                                           st.integers(-4, 4), max_size=3),
                           max_size=4))
    def test_bar_is_involution(self, coeffs):
        g = get_group("B2")
        h = HeckeElt(g, {g.elements[i]: LaurentPoly(c)
                         for i, c in coeffs.items()})
        assert bar_element(bar_element(h)) == h

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(0, 7),
                           st.dictionaries(st.integers(-3, 3),
                                           st.integers(-4, 4), max_size=3),
                           max_size=4),
           st.integers(0, 1))
    def test_bar_compatible_with_products(self, coeffs, s):
        # bar(h * delta_s) = bar(h) * bar(delta_s),
        # where bar(delta_s) = delta_s + (v - v^{-1})
        g = get_group("B2")
        h = HeckeElt(g, {g.elements[i]: LaurentPoly(c)
                         for i, c in coeffs.items()})
        lhs = bar_element(mult_delta_gen(h, s))
        bh = bar_element(h)
        rhs = mult_delta_gen(bh, s) + bh.scaled(poly({1: 1, -1: -1}))
        assert lhs == rhs

    def test_bar_delta_memo_matches_direct_product(self):
        g = get_group("B2")
        vminus = poly({1: 1, -1: -1})
        for x in g:
            acc = delta(g, ())
            for s in x.word:
                acc = mult_delta_gen(acc, s) + acc.scaled(vminus)
            assert bar_element(HeckeElt.standard(g, x)) == acc


class TestKLBasis:
    def test_b_identity(self):
        table = get_kl("A2")
        assert table.kl_basis_element(table.group.identity) == \
            delta(table.group, ())

    def test_b_s(self):
        table = get_kl("A2")
        g = table.group
        assert table.kl_basis_element(g.element((0,))) == \
            HeckeElt(g, {g.element((0,)): ONE, g.identity: V})

    def test_a2_b_s1s2_matches_solve(self):
        table = get_kl("A2")
        g = table.group
        x = g.element((0, 1))
        expected = solved_b(g, x)
        assert table.kl_basis_element(x) == expected
        # the solve pins the exact expansion
        assert expected == HeckeElt(g, {
            x: ONE, g.element((0,)): V, g.element((1,)): V,
            g.identity: poly({2: 1})})

    @pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
    def test_unitriangular_with_support_in_interval(self, spec):
        table = get_kl(spec)
        g = table.group
        for x in g:
            b = table.kl_basis_element(x)
            assert b.coefficient(x) == ONE
            for y, p in b.terms.items():
                assert g.bruhat_leq(y, x)
                if y != x:
                    assert p.in_v_times_polys() and p.is_nonnegative()

    @pytest.mark.parametrize("spec,n", [("A2", 3), ("A3", 4)])
    def test_independent_of_reduced_word(self, spec, n):
        # rebuild b_x along every reduced word of x; all agree
        table = get_kl(spec)
        g = table.group
        oracle = SymmetricOracle(n)
        for x in g:
            expected = table.kl_basis_element(x)
            words = oracle.reduced_words(oracle.word_to_perm(x.word)) or [()]
            for word in words:
                assert b_along_word(table, word) == expected

    def test_exact_ints_past_the_int64_bound(self, monkeypatch):
        # every b step whose bound reaches 8 runs on Python ints
        dtypes = []
        times_generator = hecke._times_generator

        def spy(group, batch, prev, offset, acc, *args, **kwargs):
            # the dtype of one level step's array
            dtypes.append(object if acc.dtype == object else np.int64)
            return times_generator(group, batch, prev, offset, acc,
                                   *args, **kwargs)

        monkeypatch.setattr(kernel, "INT64_LIMIT", 8)
        monkeypatch.setattr(hecke, "_times_generator", spy)
        table = KLTable(get_group("B3"))
        g = table.group
        for x in g:
            table.canonical_block(x)
        assert object in dtypes and np.int64 in dtypes
        for x in g:
            assert table.kl_basis_element(x) == b_along_word(table, x.word)


class TestMuRouteChecks:
    """A broken b_{st} in A2 must stop the step at sts."""

    @pytest.mark.parametrize("terms,message", [
        ({(0, 1): {0: 1}, (0,): {1: 1}, (1,): {1: -1}, (): {2: 1}},
         "outside vZ>=0"),                      # a negative coefficient
        ({(0, 1): {0: 1}, (0,): {1: 1}, (1,): {1: 1}, (): {0: 1, 2: 1}},
         "outside vZ>=0"),                      # a constant term, ys > y
        ({(0, 1): {0: 1}, (0,): {0: 1, 1: 1}, (1,): {1: 1}, (): {2: 1}},
         r"outside exponents \[0, 3\]"),       # a constant term, ys < y
        ({(0, 1): {0: 2}, (0,): {1: 1}, (1,): {1: 1}, (): {2: 1}},
         "not unitriangular"),                  # a wrong diagonal
        ({(0, 1): {0: 1}, (0,): {1: 1, 4: 1}, (1,): {1: 1}, (): {2: 1}},
         r"outside exponents \[0, 3\]"),       # moved past v^3, ys < y
    ])
    def test_broken_block_raises_at_the_next_step(self, terms, message):
        table = KLTable(get_group("A2"))
        g = table.group
        store_b(table, g.element((0, 1)),
                {g.element(w): poly(p) for w, p in terms.items()})
        with pytest.raises(InvariantError, match=message) as err:
            table.canonical_block(g.element((0, 1, 0)))
        assert "<1,2,1>" in str(err.value)
        assert g.element((0, 1, 0)).index not in table._canonical


def b_along_word(table: KLTable, word) -> HeckeElt:
    """b_x along ``word``, a reduced word of x, by the mu-recursion in
    HeckeElt arithmetic over the lower b_y of ``table``."""
    g = table.group
    acc = delta(g, ())
    for s in word:
        grown = mult_b_gen(acc, s)
        for y, p in acc.terms.items():
            if s in g.descents(y, "right") and p.coefficient(1):
                grown = grown - table.kl_basis_element(y).scaled(
                    LaurentPoly.constant(p.coefficient(1)))
        acc = grown
    return acc


class TestPolynomials:
    def test_diagonal(self):
        table = get_kl("A3")
        for x in table.group:
            assert table.kl_poly(x, x) == ONE
            assert table.inverse_kl_poly(x, x) == ONE

    def test_h_e_s(self):
        table = get_kl("A2")
        g = table.group
        assert table.kl_poly(g.identity, g.element((0,))) == V
        assert table.mu(g.identity, g.element((0,))) == 1

    def test_mu_of_diagonal_is_zero(self):
        table = get_kl("A2")
        for x in table.group:
            assert table.mu(x, x) == 0

    def test_zero_when_not_below(self):
        table = get_kl("A2")
        g = table.group
        s1, s2 = g.element((0,)), g.element((1,))
        assert table.kl_poly(s1, s2).is_zero()
        assert table.inverse_kl_poly(s1, s2).is_zero()

    def test_golden_a3_value_by_both_routes(self):
        # the first non-monomial polynomial in A3; the solve route is the
        # oracle that establishes it, the recursion must agree
        table = get_kl("A3")
        g = table.group
        y, x = g.element((1,)), g.element((1, 0, 2, 1))
        golden = poly({1: 1, 3: 1})
        assert solved_b(g, x).coefficient(y) == golden
        assert table.kl_poly(y, x) == golden
        assert table.mu(y, x) == 1

    def test_inverse_h_e_s(self):
        # delta_s = b_s - v b_e forces h^{e,s} = v
        table = get_kl("A2")
        g = table.group
        assert table.inverse_kl_poly(g.identity, g.element((0,))) == V

    def test_inverse_dihedral_columns_are_monomials(self):
        # hand-checked in A2 (top column 1, v, v, v^2, v^2, v^3) and B2
        for spec in ["A2", "B2", "G2"]:
            table = get_kl(spec)
            g = table.group
            for x in g:
                col = block_terms(g, table.inverse_column(x))
                assert list(col) == list(g.downset(x))
                for y, h in col.items():
                    assert h == poly({x.length - y.length: 1})

    @pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
    def test_positivity(self, spec):
        table = get_kl(spec)
        g = table.group
        for x in g:
            for y in g.downset(x):
                h = table.kl_poly(y, x)
                hinv = table.inverse_kl_poly(y, x)
                assert h.is_nonnegative() and all(e >= 0 for e in h.exponents())
                assert hinv.is_nonnegative() and \
                    all(e >= 0 for e in hinv.exponents())
                assert table.mu(y, x) >= 0

    def test_infinite_dihedral_within_cap(self):
        table = get_kl("I2(inf)", 8)
        g = table.group
        top = g.elements[-1]
        col = block_terms(g, table.inverse_column(top))
        assert col[g.identity] == poly({8: 1})
        assert table.inverse_kl_poly(g.identity, top) == poly({8: 1})
        assert table.kl_poly(g.identity, top) == poly({8: 1})


class TestIdentities:
    @pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
    def test_parity_exhaustive(self, spec):
        table = get_kl(spec)
        g = table.group
        for x in g:
            for y in g:
                assert table.check_parity(y, x)

    def test_parity_examples(self):
        table = get_kl("A2")
        g = table.group
        assert table.check_parity(g.identity, g.identity)
        assert table.check_parity(g.identity, g.element((0,)))

    def test_inversion_identity_single_term(self):
        table = get_kl("A2")
        for x in table.group:
            assert table.check_inversion_identity(x, x)

    def test_inversion_identity_e_s_cancels(self):
        # -h^{e,s} h_{s,s} + h^{e,e} h_{e,s} = -v + v = 0
        table = get_kl("A2")
        g = table.group
        assert table.check_inversion_identity(g.identity, g.element((0,)))

    @pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
    def test_inversion_identity_exhaustive(self, spec):
        table = get_kl(spec)
        g = table.group
        for x in g:
            for y in g.downset(x):
                assert table.check_inversion_identity(y, x)


class TestOracleAgreement:
    @pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
    def test_routes_agree_exhaustively(self, spec):
        table = get_kl(spec)
        for x in table.group:
            assert table.kl_basis_element(x) == solved_b(table.group, x)

    def test_routes_agree_infinite_dihedral(self):
        table = get_kl("I2(inf)", 6)
        for x in table.group:
            assert table.kl_basis_element(x) == solved_b(table.group, x)


class TestHeckeEltBehaviour:
    def test_zero_coefficients_dropped(self):
        g = get_group("A2")
        h = HeckeElt(g, {g.identity: LaurentPoly.zero()})
        assert not h.terms and not h

    def test_add_sub_roundtrip(self):
        g = get_group("A2")
        a = delta(g, (0,)).scaled(poly({2: 3}))
        b = delta(g, (1,)) + delta(g, (0,))
        assert (a + b) - b == a

    def test_negative_inverse_polynomial_raises(self):
        # mu(s, st) = -1 in b_st would give h^{s,sts} = v^2 - 2 by the
        # step delta_sts = delta_st (b_s - v)
        g = get_group("A2")
        table = KLTable(g)
        e, s, t = g.identity, g.element((0,)), g.element((1,))
        st, sts = g.element((0, 1)), g.element((0, 1, 0))
        store_b(table, st, {st: ONE, s: poly({1: -1}), t: poly({1: 1}),
                            e: poly({2: 1})})
        with pytest.raises(InvariantError, match=r"negative inverse "
                           r"polynomial at \(<1>,<1,2,1>\): -2 \+ v\^2"):
            table.inverse_column(sts)
        assert sts.index not in table._inv_cols

    def test_top_term(self):
        g = get_group("A2")
        h = delta(g, (0, 1)) + delta(g, (1,))
        x, p = h.top_term()
        assert x.word == (0, 1) and p == ONE


def test_mu_table_values_a3():
    """mu spot-checks in S4: coverings always carry mu = 1, every mu-pair
    has odd length gap, and both routes see the same mu table."""
    table = get_kl("A3")
    g = table.group
    for x in g:
        solve_b = solved_b(g, x)
        for y in g.downset(x):
            gap = x.length - y.length
            m = table.mu(y, x)
            assert m == solve_b.coefficient(y).coefficient(1)
            if gap == 1:
                assert m == 1
            if m and gap != 1:
                assert gap % 2 == 1
    golden = (g.element((1,)), g.element((1, 0, 2, 1)))
    assert table.mu(*golden) == 1 and golden[1].length - golden[0].length == 3
