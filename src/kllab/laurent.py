"""
Exact Laurent polynomials in one variable v over the integers.

This is the coefficient ring for everything else in the package: standard
basis coefficients of Hecke algebra elements, Kazhdan-Lusztig polynomials
h_{y,x}, inverse polynomials h^{y,x}, their parabolic analogues, and the
mu-coefficients (read off as the coefficient of v^1).

Values are immutable and kept in canonical sparse form: a map from integer
exponent to nonzero integer coefficient.  Python integers are exact and
unbounded, so arithmetic can never overflow or wrap.

Two partial-order style queries matter downstream:

- ``coefficient-wise order``: p <= q iff q - p has only nonnegative
  coefficients (``leq_coefficientwise``).
- the bar involution v -> v^{-1}, which negates every exponent (``bar``).

>>> p = LaurentPoly.v() + LaurentPoly.v(-1)
>>> str(p)
'v^-1 + v'
>>> str(p * p)
'v^-2 + 2 + v^2'
>>> p.bar() == p
True
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping


class LaurentPoly:
    """An integer Laurent polynomial in v, stored sparsely by exponent."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: dict[int, int] = {}
        for exp, c in items:
            if c:
                store[exp] = store.get(exp, 0) + c
                if not store[exp]:
                    del store[exp]
        self._coeffs = store
        self._hash: int | None = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def constant(n: int) -> "LaurentPoly":
        return LaurentPoly({0: n})

    @staticmethod
    def v(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * v^exp."""
        return LaurentPoly({exp: coeff})

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._coeffs:
            return other
        if not other._coeffs:
            return self
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return _wrap(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            s = out.get(exp, 0) - c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return _wrap(out)

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _ZERO
            return _wrap({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return _wrap(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k, i.e. add k to every exponent."""
        if not k:
            return self
        return _wrap({e + k: c for e, c in self._coeffs.items()})

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^{-1}: negate every exponent."""
        return _wrap({-e: c for e, c in self._coeffs.items()})

    # -- queries -----------------------------------------------------------

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return iter(sorted(self._coeffs.items()))

    def exponents(self) -> list[int]:
        return sorted(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self._coeffs.values())

    def in_v_times_polys(self) -> bool:
        """True iff the value lies in vZ[v] (all exponents >= 1)."""
        return all(e >= 1 for e in self._coeffs)

    def is_antisymmetric(self) -> bool:
        """True iff bar(p) == -p, i.e. p is a Z-combination of v^k - v^{-k}."""
        return all(self._coeffs.get(-e, 0) == -c for e, c in self._coeffs.items())

    def positive_part(self) -> "LaurentPoly":
        """The terms with strictly positive exponent."""
        return _wrap({e: c for e, c in self._coeffs.items() if e > 0})

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                term = str(abs(c))
            else:
                vpow = "v" if e == 1 else f"v^{e}"
                term = vpow if abs(c) == 1 else f"{abs(c)}*{vpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"

    def to_json_dict(self) -> dict[str, int]:
        """Exponent-to-coefficient map with string keys, for JSON export."""
        return {str(e): c for e, c in sorted(self._coeffs.items())}

    @staticmethod
    def from_json_dict(data: Mapping[str, int]) -> "LaurentPoly":
        return LaurentPoly({int(e): int(c) for e, c in data.items()})


def _wrap(store: dict[int, int]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._coeffs = store
    p._hash = None
    return p


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: the generator v, handy in expressions
V = LaurentPoly.v()


def leq_coefficientwise(p: LaurentPoly, q: LaurentPoly) -> bool:
    """True iff q - p has only nonnegative coefficients."""
    for e in set(p._coeffs) | set(q._coeffs):
        if q.coefficient(e) - p.coefficient(e) < 0:
            return False
    return True
