"""
Coxeter systems presented by a Coxeter matrix.

Elements are identified by their canonical reduced word, the ShortLex-least
one.  A ``GroupTable`` gives every element of length <= cap an integer id,
in length-then-ShortLex order, and keeps the group as integer arrays:
products with each generator on either side, descent sets and inverses.
It is built one length level at a time from the dihedral lemma
(Bjorner-Brenti, Combinatorics of Coxeter Groups, section 2.4), so no word
is ever rewritten; each element keeps one parent pointer and one letter,
from which its word is rebuilt on demand.  Bruhat downsets come lazily
from the lifting property, as sorted id arrays.

Words that leave the table (user input beyond the cap, the parabolic coset
test just above it) fall back to Tits' solution of the word problem,
``canonical_form``: delete adjacent equal pairs and walk the braid-move
closure.  It works for infinite bond orders but is exponential in the
worst case, so the table never relies on it.

Generator indices are 1-based in all I/O (matching the usual Bourbaki node
numbering of the presets) and 0-based internally.
"""

from __future__ import annotations

import os
import re
from typing import Iterable, Sequence

import numpy as np

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
        if m.group(1) == "inf":
            return _path_matrix(2, {(0, 1): INFINITY})
        if int(m.group(1)) < 2:  # 0 is also the INFINITY sentinel
            raise CoxeterSpecError("I2(m) needs m >= 2")
        return _path_matrix(2, {(0, 1): int(m.group(1))})
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
    header = re.fullmatch(r"rank\s+([-+]?\d+)", lines[0]) if lines else None
    if header is None:
        raise CoxeterSpecError("matrix file must start with 'rank N'")
    rank = int(header[1])
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


def canonical_form(word: Iterable[int],
                   matrix: CoxeterMatrix) -> tuple[int, ...]:
    """Canonical reduced word (0-based letters) of the element ``word`` spells.

    Deletes adjacent equal pairs, then walks the braid-move closure; any
    closure word containing an adjacent equal pair restarts the reduction,
    otherwise the ShortLex-least closure word is the normal form.
    """
    w = tuple(word)
    _check_letters(w, matrix.rank)
    w = _delete_adjacent_pairs(w)
    while True:
        orbit, shorter = _braid_closure(w, matrix)
        if shorter is None:
            return min(orbit)
        w = _delete_adjacent_pairs(shorter)


def _check_letters(word: Sequence[int], rank: int) -> None:
    for s in word:
        if not 0 <= s < rank:
            raise CoxeterSpecError(f"generator index {s + 1} out of range")


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
    """An interned element of one table: id and length.  It compares,
    hashes and sorts by id; its canonical word is rebuilt on each read."""

    __slots__ = ("group", "index", "length")

    def __init__(self, group: "GroupTable", index: int, length: int):
        self.group = group
        self.index = index
        self.length = length

    @property
    def word(self) -> tuple[int, ...]:
        return self.group.word(self.index)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.index == other.index

    def __hash__(self) -> int:
        return self.index

    def __lt__(self, other: "Element") -> bool:
        return self.index < other.index

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
    _check_letters(letters, rank)
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
    """All elements of length <= cap, as integer tables.

    ``right[x, s]`` and ``left[x, s]`` are the ids of xs and sx, -1 where
    the product lies beyond the cap; ``right_descents`` and
    ``left_descents`` are the matching (elements x rank) boolean arrays,
    ``inverses[x]`` the id of x^-1 and ``lengths[x]`` the length of x.
    ``cap=None`` means "until the group closes", which is only sensible
    for finite groups; the element-count bound applies either way.
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
        self._enumerate()
        self._downsets: dict[int, np.ndarray] = {0: np.zeros(1, np.intp)}

    def _enumerate(self) -> None:
        """Build the tables one length level at a time.

        For x of the current level in id order and each ascent s of x with
        xs not yet made, y = xs is new: any other (x', s') with x's' = y
        comes later in that order and finds right[x', s'] set.  So the ids
        of a level follow min over t in D_R(y) of (id(yt), t), which is
        ShortLex order of the canonical words, word(y) = word(x) + (s,).

        ``alt[x][a * rank + b]`` is the length of the descending chain
        x > xa > xab > ... with alternating letters; y = xs gains the right
        descent t != s exactly when ``alt[x][t * rank + s]`` is m(s,t) - 1,
        that is when x ends in an alternating word ..., s, t of that length
        (the dihedral lemma; never for m = INFINITY, which is 0).  Only the
        current level's chains are kept.
        """
        m, rank = self.matrix.m, self.matrix.rank
        gens = range(rank)
        right: list[list[int]] = [[-1] * rank]
        parent, last, lengths = [-1], [-1], [0]
        alt = [[0] * (rank * rank)]
        start, stop = 0, 1
        self._check_size(1)
        while start < stop and (self.cap is None or lengths[-1] < self.cap):
            new_alt = []
            for x in range(start, stop):
                row, ax = right[x], alt[x - start]
                for s in gens:
                    if row[s] != -1:
                        continue            # a descent, or xs already made
                    y = len(right)
                    self._check_size(y + 1)
                    row[s] = y
                    ys = [-1] * rank
                    ys[s] = x
                    for t in gens:
                        if t != s and ax[t * rank + s] == m[s][t] - 1:
                            ys[t] = _twin(right, x, s, t, m[s][t])
                            right[ys[t]][t] = y
                    new_alt.append([
                        0 if a == b or ys[a] < 0 else m[a][b] if ys[b] >= 0
                        else 1 + alt[ys[a] - start][b * rank + a]
                        for a in gens for b in gens])
                    right.append(ys)
                    parent.append(x)
                    last.append(s)
                    lengths.append(lengths[x] + 1)
            start, stop, alt = stop, len(right), new_alt
        self._parent, self._last = parent, last
        self.elements = [Element(self, i, n) for i, n in enumerate(lengths)]
        self.lengths = np.array(lengths, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp).reshape(-1, rank)
        self.inverses = np.array(_inverses(right, parent, last), np.intp)
        ids = np.arange(len(right))
        self.right_descents = (self.right >= 0) & (self.right < ids[:, None])
        self.left_descents = self.right_descents[self.inverses]
        up = self.right[self.inverses]                  # sx = (x^-1 s)^-1
        self.left = np.where(up >= 0, self.inverses[up], -1)

    def _check_size(self, count: int) -> None:
        if count > self.max_elements:
            raise ResourceLimitError(
                f"enumeration exceeded {self.max_elements} elements")

    # -- element access ----------------------------------------------------

    def word(self, index: int) -> tuple[int, ...]:
        """The canonical word of the element with this id."""
        letters = []
        while index > 0:
            letters.append(self._last[index])
            index = self._parent[index]
        return tuple(reversed(letters))

    def prefix(self, x: Element) -> tuple[Element, int]:
        """(x', s) with x = x's and word(x) = word(x') + (s,); x != e."""
        return self.elements[self._parent[x.index]], self._last[x.index]

    def missing_prefixes(self, x: Element, memo) -> list[int]:
        """The ids of the prefixes of x's canonical word (x included) that
        are not keys of ``memo``, above the longest one that is; shortest
        first, so each one's own prefix is in ``memo`` or before it."""
        chain, index = [], x.index
        while index >= 0 and index not in memo:
            chain.append(index)
            index = self._parent[index]
        return chain[::-1]

    def _walk(self, word: Sequence[int]) -> int:
        """The id of the element ``word`` spells, -1 if a product on the
        way lies beyond the cap."""
        _check_letters(word, self.matrix.rank)
        index = 0
        for s in word:
            index = self.right.item(index, s)
            if index < 0:
                break
        return index

    def canonical(self, word: Iterable[int]) -> tuple[int, ...]:
        word = tuple(word)
        index = self._walk(word)
        if index < 0:
            return canonical_form(word, self.matrix)
        return self.word(index)

    def element(self, word: Iterable[int]) -> Element:
        """Intern lookup by (any) word; raises if beyond the cap."""
        word = tuple(word)
        index = self._walk(word)
        if index < 0:
            # a word that is not reduced may leave the cap and come back
            c = canonical_form(word, self.matrix)
            index = self._walk(c)
            if index < 0:
                raise CapExceededError(
                    f"element {render_word(c)} of length {len(c)} lies "
                    f"beyond the enumerated cap {self.cap}")
        return self.elements[index]

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
        """True when the whole (finite) group was enumerated: no product
        with a generator leaves the table."""
        return bool((self.right >= 0).all())

    # -- multiplication and descents ---------------------------------------

    def mult_gen(self, x: Element, s: int, side: str = RIGHT) -> Element:
        """x*s (right) or s*x (left); length moves by 1."""
        index = (self.right if side == RIGHT else self.left).item(x.index, s)
        if index < 0:
            return self.element(x.word + (s,) if side == RIGHT
                                else (s,) + x.word)
        return self.elements[index]

    def descents(self, x: Element, side: str = RIGHT) -> frozenset[int]:
        """{s : x*s is shorter} (right) or {s : s*x is shorter} (left)."""
        table = self.right_descents if side == RIGHT else self.left_descents
        return frozenset(np.flatnonzero(table[x.index]).tolist())

    def inverse(self, x: Element) -> Element:
        return self.elements[self.inverses.item(x.index)]

    # -- Bruhat order --------------------------------------------------------

    def downset_ids(self, x: Element) -> np.ndarray:
        """The ids of all y <= x, ascending; memoized.

        By the lifting property, D(x) = D(x') u D(x')s for x = x's, built
        along the canonical word from the longest memoized prefix.
        """
        for i in self.missing_prefixes(x, self._downsets):
            below = self._downsets[self._parent[i]]
            ids = np.sort(np.concatenate((below,
                                          self.right[below, self._last[i]])))
            self._downsets[i] = ids[np.r_[True, ids[1:] != ids[:-1]]]
        return self._downsets[x.index]

    def bruhat_leq(self, x: Element, y: Element) -> bool:
        """x <= y in Bruhat order: x lies in the downset of y."""
        if x.length >= y.length:
            return x.index == y.index
        ids = self.downset_ids(y)
        pos = int(ids.searchsorted(x.index))
        return pos < len(ids) and ids.item(pos) == x.index

    def downset(self, x: Element) -> tuple[Element, ...]:
        """All y <= x, in id order."""
        return tuple(map(self.elements.__getitem__,
                         self.downset_ids(x).tolist()))

    # -- parabolic quotients --------------------------------------------------

    def min_coset_reps(self, subset: Iterable[int]) -> tuple[Element, ...]:
        """Minimal-length representatives of the right cosets of W_I.

        These are the x with no left descent in I, i.e. every t in I
        lengthens x from the left; returned in length-then-ShortLex order.
        """
        isub = sorted(frozenset(subset))
        _check_letters(isub, self.matrix.rank)
        keep = ~self.left_descents[:, isub].any(axis=1)
        return tuple(map(self.elements.__getitem__,
                         np.flatnonzero(keep).tolist()))


def _twin(right: list[list[int]], x: int, s: int, t: int, m: int) -> int:
    """(xs)t, for x ending in the alternating word ..., s, t of length
    m - 1 = m(s,t) - 1: down that suffix, then up the other alternating
    word of length m - 1, the one ending in s."""
    for i in range(m - 1):
        x = right[x][t if i % 2 == 0 else s]
    for i in range(m - 1):
        x = right[x][s if (m - i) % 2 == 0 else t]
    return x


def _inverses(right: list[list[int]], parent: list[int],
              last: list[int]) -> list[int]:
    """The id of each inverse, O(1) per element: for y = y's with first
    letter c (that of y' too, when y' != e), cy = (cy')s is one shorter
    and y^-1 = (cy)^-1 c."""
    first, below, inverse = [-1], [0], [0]
    for y in range(1, len(right)):
        p, s = parent[y], last[y]
        c = first[p] if p else s
        cy = right[below[p]][s] if p else 0
        first.append(c)
        below.append(cy)
        inverse.append(right[inverse[cy]][c] if p else y)
    return inverse
