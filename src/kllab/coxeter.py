"""
Coxeter systems presented by a Coxeter matrix.

Elements are identified by their canonical reduced word: the ShortLex-least
word within the braid-equivalence class of any reduced expression.  By
Tits' solution to the word problem this is a complete normal form for every
Coxeter system, including ones with infinite bond orders, and it needs no
reflection representation.  The closure under braid moves is exponential in
the worst case but is computed once per element and cached, which is
negligible at the scale this package targets (rank <= 4ish, length <= ~16).

A ``GroupTable`` interns every element of length <= cap as an integer id,
assigned in length-then-ShortLex order, and memoizes products with
generators and Bruhat comparisons.  After construction the table is only
ever read, so it is safe to share across threads.

Generator indices are 1-based in all I/O (matching the usual Bourbaki node
numbering of the presets) and 0-based internally.
"""

from __future__ import annotations

import os
import re
from typing import Iterable, Sequence

#: sentinel for an infinite bond order m_st; chosen so it never collides
#: with a legal order (legal orders are 1 on the diagonal, >= 2 off it)
INFINITY = 0

_ENV_MAX_ELEMENTS = "KLLAB_MAX_ELEMENTS"
DEFAULT_MAX_ELEMENTS = 2_000_000


class CoxeterSpecError(ValueError):
    """Unknown type string, malformed matrix file, or invalid matrix data."""


class CapExceededError(RuntimeError):
    """An operation needed an element beyond the enumerated length cap."""


class ResourceLimitError(RuntimeError):
    """Enumeration exceeded the configured element-count bound."""


class SettingError(ValueError):
    """An environment variable holds a value that cannot be used."""


class CoxeterMatrix:
    """The presentation data: a symmetric matrix of bond orders m_st."""

    __slots__ = ("rank", "m")

    def __init__(self, m: Sequence[Sequence[int]]):
        rank = len(m)
        if rank == 0:
            raise CoxeterSpecError("rank must be positive")
        rows = tuple(tuple(int(x) for x in row) for row in m)
        for i, row in enumerate(rows):
            if len(row) != rank:
                raise CoxeterSpecError("Coxeter matrix must be square")
            if row[i] != 1:
                raise CoxeterSpecError(f"diagonal entry m[{i+1}][{i+1}] must be 1")
            for j, mij in enumerate(row):
                if i == j:
                    continue
                if mij != rows[j][i]:
                    raise CoxeterSpecError(
                        f"matrix not symmetric at ({i+1},{j+1})")
                if mij != INFINITY and mij < 2:
                    raise CoxeterSpecError(
                        f"off-diagonal m[{i+1}][{j+1}] must be >= 2 or inf")
        self.rank = rank
        self.m = rows

    def order(self, s: int, t: int) -> int:
        """Bond order m_st (0-based indices); INFINITY stands for infinity."""
        return self.m[s][t]

    def is_finite(self) -> bool:
        """Whether the Coxeter group is finite, decided exactly.

        W is finite iff every connected component of its Coxeter graph
        (edges where m_st != 2) is one of A_n, B_n, D_n, E6-8, F4, H3, H4
        or I2(m) with m finite (Bjorner-Brenti, Appendix A1).
        """
        seen: set[int] = set()
        for start in range(self.rank):
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            for u in component:
                for w in range(self.rank):
                    if w != u and self.m[u][w] != 2 and w not in seen:
                        seen.add(w)
                        component.append(w)
            if not self._finite_component(component):
                return False
        return True

    def _finite_component(self, nodes: list[int]) -> bool:
        """Whether one connected component of the Coxeter graph is of
        finite type."""
        adj = {u: [w for w in nodes if w != u and self.m[u][w] != 2]
               for u in nodes}
        bonds = {(u, w): self.m[u][w] for u in nodes for w in adj[u] if u < w}
        if INFINITY in bonds.values():
            return False
        if len(nodes) <= 2:
            return True                         # A1, or I2(m) with m finite
        if len(bonds) != len(nodes) - 1:
            return False                        # the graph has a cycle
        heavy = [(u, w) for (u, w), m in bonds.items() if m > 3]
        branches = [u for u in nodes if len(adj[u]) > 2]
        if heavy:
            if branches or len(heavy) > 1:
                return False
            u, w = heavy[0]
            at_end = len(adj[u]) == 1 or len(adj[w]) == 1
            if bonds[u, w] == 4:                # B_n, or F4 with 4 inside
                return at_end or len(nodes) == 4
            return bonds[u, w] == 5 and at_end and len(nodes) <= 4  # H3, H4
        if not branches:
            return True                         # A_n
        centre = branches[0]
        if len(branches) > 1 or len(adj[centre]) > 3:
            return False

        def arm(first: int) -> int:
            prev, cur, size = centre, first, 1
            while len(adj[cur]) == 2:
                prev, cur = cur, sum(adj[cur]) - prev
                size += 1
            return size

        # a star with arms of a, b, c nodes: D_n and E6-8 are exactly the
        # stars with 1/(a+1) + 1/(b+1) + 1/(c+1) > 1
        p, q, r = (arm(w) + 1 for w in adj[centre])
        return q * r + p * r + p * q > p * q * r

    def __eq__(self, other) -> bool:
        return isinstance(other, CoxeterMatrix) and self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"CoxeterMatrix({[list(r) for r in self.m]!r})"


# ----------------------------------------------------------------------
# presets and the matrix file format
# ----------------------------------------------------------------------

def _path_matrix(rank: int, bonds: dict[tuple[int, int], int]) -> CoxeterMatrix:
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1
    for (i, j), order in bonds.items():
        m[i][j] = m[j][i] = order
    return CoxeterMatrix(m)


def _type_a(n: int) -> CoxeterMatrix:
    return _path_matrix(n, {(i, i + 1): 3 for i in range(n - 1)})


def _type_b(n: int) -> CoxeterMatrix:
    bonds = {(i, i + 1): 3 for i in range(n - 2)}
    bonds[(n - 2, n - 1)] = 4
    return _path_matrix(n, bonds)


def _type_d(n: int) -> CoxeterMatrix:
    # path over the first n-2 nodes, both tail nodes attached to its end
    bonds = {(i, i + 1): 3 for i in range(n - 3)}
    bonds[(n - 3, n - 2)] = 3
    bonds[(n - 3, n - 1)] = 3
    return _path_matrix(n, bonds)


def _type_e(n: int) -> CoxeterMatrix:
    # Bourbaki: 1-3-4-5-...-n in a path, node 2 hangs off node 4
    bonds = {(1, 3): 3}
    bonds[(0, 2)] = 3
    for i in range(2, n - 1):
        bonds[(i, i + 1)] = 3
    return _path_matrix(n, bonds)


def _type_h(n: int) -> CoxeterMatrix:
    bonds = {(i, i + 1): 3 for i in range(1, n - 1)}
    bonds[(0, 1)] = 5
    return _path_matrix(n, bonds)


def parse_coxeter_spec(spec: str) -> CoxeterMatrix:
    """Build a Coxeter matrix from a type string or a ``file:PATH`` reference.

    Recognised presets: An, Bn, Dn, E6/E7/E8, F4, G2, H3, H4, I2(m) with
    m >= 2 or I2(inf), and the affine presets Aff-A1 (the infinite
    dihedral group) and Aff-A2.  Generator numbering follows the Bourbaki
    node order.
    """
    spec = spec.strip()
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return parse_matrix_file(fh.read())
        except OSError as exc:
            raise CoxeterSpecError(f"cannot read matrix file {path!r}: {exc}")

    m = re.fullmatch(r"I2\((\d+|inf)\)", spec)
    if m:
        order = INFINITY if m.group(1) == "inf" else int(m.group(1))
        if order != INFINITY and order < 2:
            raise CoxeterSpecError("I2(m) needs m >= 2")
        return _path_matrix(2, {(0, 1): order})
    if spec == "Aff-A1":
        return _path_matrix(2, {(0, 1): INFINITY})
    if spec == "Aff-A2":
        return _path_matrix(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3})

    m = re.fullmatch(r"([ABDEFGH])(\d+)", spec)
    if m:
        letter, n = m.group(1), int(m.group(2))
        if letter == "A" and n >= 1:
            return _type_a(n)
        if letter == "B" and n >= 2:
            return _type_b(n)
        if letter == "D" and n >= 3:
            return _type_d(n)
        if letter == "E" and n in (6, 7, 8):
            return _type_e(n)
        if letter == "F" and n == 4:
            return _path_matrix(4, {(0, 1): 3, (1, 2): 4, (2, 3): 3})
        if letter == "G" and n == 2:
            return _path_matrix(2, {(0, 1): 6})
        if letter == "H" and n in (3, 4):
            return _type_h(n)
    raise CoxeterSpecError(f"unknown Coxeter type string {spec!r}")


def parse_matrix_file(text: str) -> CoxeterMatrix:
    """Parse the line-oriented matrix format.

    First line ``rank N``; each following non-empty line ``s t m`` gives an
    off-diagonal bond order (1-based generator indices; ``m`` an integer
    >= 2 or the token ``inf``).  Unspecified pairs default to 2.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("rank"):
        raise CoxeterSpecError("matrix file must start with 'rank N'")
    try:
        rank = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise CoxeterSpecError("matrix file must start with 'rank N'")
    if rank < 1:
        raise CoxeterSpecError("rank must be positive")
    bonds: dict[tuple[int, int], int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise CoxeterSpecError(f"malformed matrix line {ln!r}")
        try:
            s, t = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            raise CoxeterSpecError(f"malformed matrix line {ln!r}")
        if not (0 <= s < rank and 0 <= t < rank) or s == t:
            raise CoxeterSpecError(f"bad generator pair in line {ln!r}")
        if parts[2] == "inf":
            order = INFINITY
        else:
            try:
                order = int(parts[2])
            except ValueError:
                raise CoxeterSpecError(f"malformed bond order in line {ln!r}")
            if order < 2:
                raise CoxeterSpecError(f"bond order must be >= 2 in line {ln!r}")
        key = (min(s, t), max(s, t))
        if key in bonds and bonds[key] != order:
            raise CoxeterSpecError(
                f"conflicting orders for pair {key[0]+1},{key[1]+1}")
        bonds[key] = order
    return _path_matrix(rank, bonds)


# ----------------------------------------------------------------------
# canonical words (Tits' algorithm)
# ----------------------------------------------------------------------

def _delete_adjacent_pairs(word: Sequence[int]) -> tuple[int, ...]:
    """Cancel s*s = e wherever adjacent, cascading."""
    stack: list[int] = []
    for s in word:
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def _alternating(s: int, t: int, length: int) -> tuple[int, ...]:
    return tuple(s if i % 2 == 0 else t for i in range(length))


def canonical_form(word: Iterable[int], matrix: CoxeterMatrix,
                   _cache: dict | None = None) -> tuple[int, ...]:
    """Canonical reduced word (0-based letters) of the element ``word`` spells.

    Deletes adjacent equal pairs, then walks the braid-move closure; any
    closure word containing an adjacent equal pair restarts the reduction,
    otherwise the ShortLex-least closure word is the normal form.  With a
    cache supplied, every closure member is remembered, so any reduced word
    of a previously canonicalised element is an O(1) hit.
    """
    w = tuple(word)
    for s in w:
        if not 0 <= s < matrix.rank:
            raise CoxeterSpecError(f"generator index {s + 1} out of range")
    w = _delete_adjacent_pairs(w)
    pending: list[tuple[int, ...]] = []
    while True:
        if _cache is not None and w in _cache:
            best = _cache[w]
            break
        orbit, shorter = _braid_closure(w, matrix)
        if shorter is None:
            best = min(orbit)
            if _cache is not None:
                for member in orbit:
                    _cache[member] = best
            break
        # w was not reduced: every word seen so far shares its value
        pending.extend(orbit)
        w = _delete_adjacent_pairs(shorter)
    if _cache is not None:
        for member in pending:
            _cache[member] = best
    return best


def _braid_closure(w: tuple[int, ...], matrix: CoxeterMatrix):
    """BFS the braid-move closure of w.

    Returns (closure, None) when every member is free of adjacent equal
    pairs (so w was reduced), or (partial, word) as soon as a braid move
    produces a word with an adjacent equal pair, meaning w was not reduced.
    All closure members have the same length, so ShortLex-least is just
    lexicographic min.
    """
    seen = {w}
    frontier = [w]
    n = len(w)
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(n - 1):
                s, t = u[i], u[i + 1]
                if s == t:
                    return seen, u
                m = matrix.order(s, t)
                if m == INFINITY or i + m > n:
                    continue
                if u[i:i + m] == _alternating(s, t, m):
                    v = u[:i] + _alternating(t, s, m) + u[i + m:]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    return seen, None


# ----------------------------------------------------------------------
# interned elements and the group table
# ----------------------------------------------------------------------

class Element:
    """A group element: canonical reduced word plus interned integer id."""

    __slots__ = ("word", "index")

    def __init__(self, word: tuple[int, ...], index: int):
        self.word = word
        self.index = index

    @property
    def length(self) -> int:
        return len(self.word)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.word), self.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __lt__(self, other: "Element") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"<{render_word(self.word)}>"


def render_word(word: Sequence[int]) -> str:
    """1-based comma-separated rendering; the identity renders as 'e'."""
    return ",".join(str(s + 1) for s in word) if word else "e"


def parse_word(text: str, rank: int) -> tuple[int, ...]:
    """Inverse of render_word (input need not be reduced)."""
    text = text.strip()
    if text in ("e", ""):
        return ()
    try:
        letters = tuple(int(part) - 1 for part in text.split(","))
    except ValueError:
        raise CoxeterSpecError(f"malformed element {text!r}")
    for s in letters:
        if not 0 <= s < rank:
            raise CoxeterSpecError(f"generator index {s + 1} out of range")
    return letters


LEFT = "left"
RIGHT = "right"


def _max_elements_setting() -> int:
    """The element-count bound from KLLAB_MAX_ELEMENTS: an integer >= 1."""
    text = os.environ.get(_ENV_MAX_ELEMENTS)
    if text is None:
        return DEFAULT_MAX_ELEMENTS
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise SettingError(
            f"{_ENV_MAX_ELEMENTS} must be an integer >= 1, got {text!r}")
    return value


class GroupTable:
    """All elements of length <= cap, interned, with memoized structure.

    Construction walks the breadth-first closure of {e} under right
    multiplication, one length level at a time, so ids increase in
    length-then-ShortLex order.  ``cap=None`` means "until the group
    closes", which is only sensible for finite groups; the element-count
    bound still applies either way.
    """

    def __init__(self, matrix: CoxeterMatrix, cap: int | None = None,
                 max_elements: int | None = None):
        if cap is not None and cap < 0:
            raise ValueError("cap must be >= 0")
        if max_elements is None:
            max_elements = _max_elements_setting()
        self.matrix = matrix
        self.cap = cap
        self.max_elements = max_elements
        self._canon: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
        self.elements: list[Element] = []
        self._by_word: dict[tuple[int, ...], Element] = {}
        self._right: dict[tuple[int, int], Element] = {}
        self._left: dict[tuple[int, int], Element] = {}
        self._right_desc: list[frozenset[int]] = []
        self._left_desc: list[frozenset[int]] = []
        self._bruhat: dict[tuple[int, int], bool] = {}
        self._downsets: dict[int, tuple[Element, ...]] = {}
        self._enumerate()

    # -- construction ----------------------------------------------------

    def _intern(self, word: tuple[int, ...]) -> Element:
        el = Element(word, len(self.elements))
        if len(self.elements) >= self.max_elements:
            raise ResourceLimitError(
                f"enumeration exceeded {self.max_elements} elements")
        self.elements.append(el)
        self._by_word[word] = el
        return el

    def _enumerate(self) -> None:
        gens = range(self.matrix.rank)
        self._intern(())
        frontier = [()]
        length = 0
        while frontier and (self.cap is None or length < self.cap):
            length += 1
            level: set[tuple[int, ...]] = set()
            for w in frontier:
                for s in gens:
                    c = canonical_form(w + (s,), self.matrix, self._canon)
                    if len(c) == length:
                        level.add(c)
            frontier = sorted(level)
            for w in frontier:
                self._intern(w)
        for el in self.elements:
            self._right_desc.append(frozenset(
                s for s in gens
                if len(self.canonical(el.word + (s,))) < el.length))
            self._left_desc.append(frozenset(
                s for s in gens
                if len(self.canonical((s,) + el.word)) < el.length))

    # -- element access ----------------------------------------------------

    def canonical(self, word: Iterable[int]) -> tuple[int, ...]:
        return canonical_form(word, self.matrix, self._canon)

    def element(self, word: Iterable[int]) -> Element:
        """Intern lookup by (any) word; raises if beyond the cap."""
        c = self.canonical(word)
        el = self._by_word.get(c)
        if el is None:
            raise CapExceededError(
                f"element {render_word(c)} of length {len(c)} lies beyond "
                f"the enumerated cap {self.cap}")
        return el

    @property
    def identity(self) -> Element:
        return self.elements[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def longest_length(self) -> int:
        return self.elements[-1].length

    def is_complete(self) -> bool:
        """True when the whole (finite) group was enumerated.

        Holds exactly when no top-length element can still be lengthened,
        i.e. the BFS frontier closed before hitting the cap.
        """
        top = self.longest_length()
        if self.cap is not None and top >= self.cap:
            for el in self.elements:
                if el.length == top and \
                        len(self._right_desc[el.index]) < self.matrix.rank:
                    return False
        return True

    # -- multiplication and descents ---------------------------------------

    def mult_gen(self, x: Element, s: int, side: str = RIGHT) -> Element:
        """Canonical form of x*s (right) or s*x (left); length moves by 1."""
        memo = self._right if side == RIGHT else self._left
        key = (x.index, s)
        out = memo.get(key)
        if out is None:
            word = x.word + (s,) if side == RIGHT else (s,) + x.word
            out = self.element(word)
            memo[key] = out
        return out

    def descents(self, x: Element, side: str = RIGHT) -> frozenset[int]:
        """{s : x*s is shorter} (right) or {s : s*x is shorter} (left)."""
        table = self._right_desc if side == RIGHT else self._left_desc
        return table[x.index]

    def inverse(self, x: Element) -> Element:
        return self.element(tuple(reversed(x.word)))

    # -- Bruhat order --------------------------------------------------------

    def bruhat_leq(self, x: Element, y: Element) -> bool:
        """x <= y in Bruhat order, by the descent recursion, memoized.

        For any right descent s of y: x <= y iff min(x, xs) <= ys.  The
        recursion is a single chain, walked as a loop; every pair on the
        chain is memoized with the answer.
        """
        chain = []
        while True:
            if x.length > y.length:
                out = False
                break
            if x.length == y.length:
                out = x.word == y.word
                break
            key = (x.index, y.index)
            cached = self._bruhat.get(key)
            if cached is not None:
                out = cached
                break
            chain.append(key)
            s = min(self._right_desc[y.index])
            if s in self._right_desc[x.index]:
                x = self.mult_gen(x, s, RIGHT)
            y = self.mult_gen(y, s, RIGHT)
        for key in chain:
            self._bruhat[key] = out
        return out

    def downset(self, x: Element) -> tuple[Element, ...]:
        """All y <= x, in id order; memoized."""
        cached = self._downsets.get(x.index)
        if cached is None:
            cached = tuple(y for y in self.elements
                           if y.length <= x.length and self.bruhat_leq(y, x))
            self._downsets[x.index] = cached
        return cached

    # -- parabolic quotients --------------------------------------------------

    def min_coset_reps(self, subset: Iterable[int]) -> tuple[Element, ...]:
        """Minimal-length representatives of the right cosets of W_I.

        These are the x with no left descent in I, i.e. every t in I
        lengthens x from the left; returned in length-then-ShortLex order.
        """
        isub = frozenset(subset)
        for t in isub:
            if not 0 <= t < self.matrix.rank:
                raise CoxeterSpecError(f"generator index {t + 1} out of range")
        return tuple(el for el in self.elements
                     if not (self._left_desc[el.index] & isub))
