"""Laurent polynomial arithmetic, the bar involution, and coefficient order."""

import pytest
from hypothesis import given, strategies as st

from kllab.laurent import LaurentPoly, V, leq_coefficientwise


def lp(d):
    return LaurentPoly(d)


polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                        max_size=6).map(LaurentPoly)


class TestBasics:
    def test_add_disjoint_supports(self):
        assert V + V.bar() == lp({-1: 1, 1: 1})

    def test_add_cancels_to_zero(self):
        assert (V + (-V)).is_zero()
        assert V - V == LaurentPoly.zero()

    def test_add_doubles(self):
        p = lp({1: 1, -1: 1})
        assert p + p == lp({1: 2, -1: 2})

    def test_mul_quadratic_relation_root(self):
        # substituting x = v^{-1} into (x + v)(x - v^{-1}) annihilates
        x = LaurentPoly.v(-1)
        assert ((x + V) * (x - LaurentPoly.v(-1))).is_zero()

    def test_mul_unit(self):
        p = lp({1: 1, -1: 1})
        assert p * LaurentPoly.one() == p

    def test_mul_square(self):
        p = lp({1: 1, -1: 1})
        assert p * p == lp({2: 1, 0: 2, -2: 1})

    def test_scalar_mul(self):
        assert 3 * V == lp({1: 3})
        assert V * 0 == LaurentPoly.zero()

    def test_bar_examples(self):
        assert V.bar() == LaurentPoly.v(-1)
        assert LaurentPoly.constant(3).bar() == LaurentPoly.constant(3)
        sym = lp({1: 1, -1: 1})
        assert sym.bar() == sym

    def test_coefficient(self):
        p = lp({1: 1, 3: 2})
        assert p.coefficient(3) == 2
        assert p.coefficient(0) == 0
        assert V.coefficient(1) == 1  # mu(e, s) below will reuse this

    def test_shift(self):
        assert V.shift(2) == LaurentPoly.v(3)
        assert lp({0: 1}).shift(-1) == LaurentPoly.v(-1)


class TestOrder:
    def test_zero_below_nonnegative(self):
        p = lp({0: 2, 5: 1})
        assert leq_coefficientwise(LaurentPoly.zero(), p)

    def test_monomial_below_sum(self):
        assert leq_coefficientwise(V, lp({1: 1, 3: 1}))

    def test_dropped_coefficient_fails(self):
        assert not leq_coefficientwise(lp({-1: 1, 1: 1}), V)


class TestRendering:
    @pytest.mark.parametrize("coeffs,text", [
        ({}, "0"),
        ({0: 1}, "1"),
        ({1: 1}, "v"),
        ({-1: 1, 1: 1}, "v^-1 + v"),
        ({-2: 1, 0: 2, 2: 1}, "v^-2 + 2 + v^2"),
        ({1: -1, 3: 2}, "-v + 2*v^3"),
    ])
    def test_str(self, coeffs, text):
        assert str(lp(coeffs)) == text

    def test_json_round_trip(self):
        p = lp({-3: 4, 0: -1, 2: 7})
        assert LaurentPoly.from_json_dict(p.to_json_dict()) == p


class TestProperties:
    @given(polys, polys, polys)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    def test_bar_is_ring_involution(self, p, q):
        assert (p * q).bar() == p.bar() * q.bar()
        assert (p + q).bar() == p.bar() + q.bar()
        assert p.bar().bar() == p

    @given(polys, polys)
    def test_order_respects_addition_of_nonnegative(self, p, q):
        nonneg = LaurentPoly({e: abs(c) for e, c in q.items()})
        assert leq_coefficientwise(p, p + nonneg)

    @given(polys, polys)
    def test_order_antisymmetry(self, p, q):
        if leq_coefficientwise(p, q) and leq_coefficientwise(q, p):
            assert p == q

    @given(polys)
    def test_canonical_form_idempotent(self, p):
        # rebuilding from the stored items is a no-op
        assert LaurentPoly(dict(p.items())) == p
        assert all(c != 0 for _, c in p.items())

    @given(polys)
    def test_antisymmetric_split(self, p):
        anti = p - p.bar()
        assert anti.is_antisymmetric()
        pos = anti.positive_part()
        assert pos - pos.bar() == anti
